#!/usr/bin/env bash
# Fails when a test name in the Makefile's `race` or `fuzz` target no
# longer names a test. `go test -run NoSuchTest` and `-fuzz NoSuchFuzz`
# exit 0 ("no tests to run"), so a renamed or deleted test silently
# drops out of those targets; this check makes it fail CI instead.
#
# For every `-run` and `-fuzz` pattern in the two targets (the `^$`
# that keeps fuzz runs from running the unit tests excepted), each
# `|`-separated alternative must be listed by `go test -list` in at
# least one of the packages the line names. A subtest path
# (`TestX/cell`) is checked by its top-level test.
#
# Usage: scripts/check_test_names.sh [Makefile]
set -euo pipefail

makefile="${1:-Makefile}"
go="${GO:-go}"

# The recipe lines of the race and fuzz targets.
lines="$(awk '
	/^[A-Za-z_-]+:/ { target = $1; sub(/:.*/, "", target); next }
	/^\t/ && (target == "race" || target == "fuzz") { print }
' "$makefile")"

checked=0
failed=0
while IFS= read -r line; do
	read -ra words <<<"$line"
	patterns=()
	pkgs=()
	for ((i = 0; i < ${#words[@]}; i++)); do
		case "${words[i]}" in
		-run | -fuzz)
			p="${words[i + 1]}"
			p="${p#\'}"
			p="${p%\'}"
			[ "$p" = '^$$' ] || patterns+=("$p")
			i=$((i + 1))
			;;
		./*) pkgs+=("${words[i]}") ;;
		esac
	done
	[ ${#patterns[@]} -gt 0 ] || continue
	for p in "${patterns[@]}"; do
		IFS='|' read -ra alts <<<"$p"
		for alt in "${alts[@]}"; do
			top="${alt%%/*}"
			found=0
			for pkg in "${pkgs[@]}"; do
				listed="$("$go" test -list "$top" "$pkg")"
				if grep -q '^\(Test\|Fuzz\|Benchmark\|Example\)' <<<"$listed"; then
					found=1
					break
				fi
			done
			checked=$((checked + 1))
			if [ "$found" = 0 ]; then
				echo "check_test_names: '$alt' names no test in ${pkgs[*]} ($makefile: $line)" >&2
				failed=$((failed + 1))
			fi
		done
	done
done <<<"$lines"

if [ "$checked" = 0 ]; then
	echo "check_test_names: found no -run or -fuzz pattern in $makefile's race and fuzz targets" >&2
	exit 1
fi
if [ "$failed" != 0 ]; then
	echo "check_test_names: $failed of $checked test names match nothing" >&2
	exit 1
fi
echo "check_test_names: all $checked test names in race and fuzz match a test"
