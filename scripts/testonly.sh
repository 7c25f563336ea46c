#!/usr/bin/env bash
# testonly.sh prints, one a line, the exported identifiers declared in the
# package directory it is given that no non-test Go file of the module
# (bench/ included) names outside their own declaration. It is a word grep
# over code with its // comments stripped (whole comment lines and trailing
# ones alike), so a mention in a comment is not a caller, and a method
# sharing a common name is never listed.
#
# Usage: bash scripts/testonly.sh <package dir>
set -euo pipefail

pkg=$1
for id in $(awk '/^(const|var) \($/ { blk = 1; next }
	blk && /^\)/ { blk = 0; next }
	blk && /^\t[A-Z]/ { match($0, /[A-Z][A-Za-z0-9_]*/); print substr($0, RSTART, RLENGTH); next }
	/^func \([^)]*\) [A-Z]/ { sub(/^func \([^)]*\) /, ""); match($0, /^[A-Z][A-Za-z0-9_]*/); print substr($0, RSTART, RLENGTH); next }
	/^(func|type|const|var) [A-Z]/ { match($0, / [A-Z][A-Za-z0-9_]*/); print substr($0, RSTART + 1, RLENGTH - 1) }' \
	$(find "$pkg" -name '*.go' ! -name '*_test.go') | sort -u); do
	n=$(grep -rhw --include='*.go' --exclude='*_test.go' --exclude-dir=.bench_build "$id" . | sed 's|//.*||' | grep -cw "$id" || true)
	if [ "$n" -le 1 ]; then
		echo "$id"
	fi
done
