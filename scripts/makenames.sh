#!/usr/bin/env bash
# makenames.sh checks that every test, benchmark and fuzz target a
# Makefile selects by name still exists. For each `$(GO) test` recipe
# line with a -run, -bench or -fuzz pattern it splits the pattern into its
# top-level alternatives, keeps each one's first name level (go test
# splits a pattern at '/' into one regexp per subtest level), and fails
# when an alternative matches no name `go test -list .` prints for the
# packages on that line. Without this a renamed or deleted test turns its
# line into one that silently runs nothing. The pattern '^$' selects
# nothing on purpose and is skipped.
#
# Usage: bash scripts/makenames.sh [Makefile]   (GO overrides the go binary)
set -euo pipefail

makefile=${1:-Makefile}
go=${GO:-go}
lists=$(mktemp -d)
trap 'rm -rf "$lists"' EXIT

# names prints the test, benchmark, fuzz and example names of package $1,
# listing each package once.
names() {
	local file="$lists/$(printf '%s' "$1" | tr '/.' '__')"
	if [ ! -f "$file" ]; then
		"$go" test -list . "$1" | grep -v '^ok ' >"$file"
	fi
	cat "$file"
}

# alternatives prints the top-level '|' alternatives of pattern $1, each
# cut at its first top-level '/'.
alternatives() {
	awk -v pat="$1" 'BEGIN {
		depth = 0; alt = ""; cut = 0
		for (i = 1; i <= length(pat); i++) {
			c = substr(pat, i, 1)
			if (c == "(") depth++
			if (c == ")") depth--
			if (depth == 0 && c == "|") { print alt; alt = ""; cut = 0; continue }
			if (depth == 0 && c == "/") cut = 1
			if (!cut) alt = alt c
		}
		print alt
	}'
}

status=0
while IFS= read -r line; do
	read -ra toks <<<"$line"
	pats=()
	pkgs=()
	for ((i = 0; i < ${#toks[@]}; i++)); do
		case ${toks[i]} in
		-run | -bench | -fuzz)
			p=${toks[i + 1]//\'/}
			pats+=("${p//\$\$/\$}")
			;;
		./*) pkgs+=("${toks[i]}") ;;
		esac
	done
	for pat in "${pats[@]}"; do
		[ "$pat" = '^$' ] && continue
		while IFS= read -r alt; do
			found=0
			for pkg in "${pkgs[@]}"; do
				if names "$pkg" | grep -Eq -- "$alt"; then
					found=1
					break
				fi
			done
			if [ "$found" = 0 ]; then
				echo "$makefile: '$alt' names no test, benchmark or fuzz target in ${pkgs[*]}" >&2
				status=1
			fi
		done < <(alternatives "$pat")
	done
done < <(grep -E '^[[:space:]]+(cd [^&]*&& )?\$\(GO\) test .*-(run|bench|fuzz) ' "$makefile")
exit "$status"
