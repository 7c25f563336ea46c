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
# It then checks the docs named after the Makefile: every Test…,
# Benchmark…, Fuzz… or Example… identifier a doc names must be one that
# `go test -list .` prints for the root module or the bench module, so a
# doc cannot point a reader at a test that is gone. It prints the file and
# line of each stale name.
#
# Last it checks the docs' command lines: every -flag on a line that runs
# `go run ./cmd/<bin>` must be one that binary's -h lists, so a doc cannot
# show a command that fails with "flag provided but not defined". The
# command ends at a backtick, a '|', ';' or '&', or a '#' comment.
#
# Usage: bash scripts/makenames.sh [Makefile [doc ...]]   (GO overrides the go binary)
set -euo pipefail

makefile=${1:-Makefile}
docs=("${@:2}")
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

if [ ${#docs[@]} -gt 0 ]; then
	all="$lists/all"
	{ "$go" test -list . ./... && (cd bench && "$go" test -list . ./...); } |
		grep -E '^(Test|Benchmark|Fuzz|Example)' | sort -u >"$all"
	for doc in "${docs[@]}"; do
		while IFS=: read -r line name; do
			if ! grep -qx -- "$name" "$all"; then
				echo "$doc:$line: '$name' names no test, benchmark, fuzz target or example" >&2
				status=1
			fi
		done < <(grep -noE '\b(Test|Benchmark|Fuzz|Example)[A-Z0-9_][A-Za-z0-9_]*' "$doc")
	done
	for doc in "${docs[@]}"; do
		while IFS=: read -r line text; do
			bin=$(grep -oE 'go run \./cmd/[A-Za-z0-9_]+' <<<"$text" | head -1)
			bin=${bin##*/}
			flags="$lists/flags_$bin"
			if [ ! -f "$flags" ]; then
				"$go" build -o "$lists/$bin" "./cmd/$bin"
				{ "$lists/$bin" -h 2>&1 || true; } | grep -oE '^  -[A-Za-z0-9_.-]+' | sed 's/^  //' >"$flags"
			fi
			cmd=${text#*go run ./cmd/$bin}
			cmd=${cmd%%[\`|;&]*}
			cmd=${cmd%%#*}
			for name in $(grep -oE '(^|[[:space:]])--?[A-Za-z][A-Za-z0-9_.-]*' <<<"$cmd" | sed -E 's/^[[:space:]]*-+//'); do
				if ! grep -qx -- "-$name" "$flags"; then
					echo "$doc:$line: '-$name' is not a flag of ./cmd/$bin" >&2
					status=1
				fi
			done
		done < <(grep -nE 'go run \./cmd/[A-Za-z0-9_]+' "$doc")
	done
fi
exit "$status"
