#!/usr/bin/env bash
# Fails when a test selector in the workflows matches nothing: every
# alternative of a `-run '…'` regex on a `go test` line of ci.yml or
# nightly.yml must match a test, fuzz target or example of a package that
# line names, and every `-fuzz=` target (a ci.yml line, or a target/pkg pair
# of the nightly fuzz matrix) must be a fuzz target of its package. A rename
# or a deletion that leaves a selector behind would otherwise turn its CI
# step into a silent no-op. Run from the repository root:
#
#   bash .github/check-test-selectors.sh
set -euo pipefail

wf=.github/workflows
declare -A listed # package list -> the names `go test -list` prints for it
bad=0

# load fills listed for a package list; a package that does not build fails
# the check here.
load() {
	if [[ -z ${listed[$1]+x} ]]; then
		local out
		# shellcheck disable=SC2086 # $1 is a space-separated package list
		out=$(go test -vet=off -list . $1)
		listed[$1]=$(grep -E '^(Test|Fuzz|Example)' <<<"$out" || true)
	fi
}

# alternatives splits a regex at the '|' that are outside any group.
alternatives() {
	awk -v re="$1" 'BEGIN {
		depth = 0; alt = ""
		for (i = 1; i <= length(re); i++) {
			c = substr(re, i, 1)
			if (c == "(") depth++
			if (c == ")") depth--
			if (c == "|" && depth == 0) { print alt; alt = ""; continue }
			alt = alt c
		}
		print alt
	}'
}

fail() {
	echo "$1" >&2
	bad=1
}

check_run() { # file, line, regex, packages
	local alt
	load "$4"
	while IFS= read -r alt; do
		alt=${alt%%/*} # a subtest selector: the top-level test's part
		[[ -z $alt || $alt == '^$' ]] && continue
		if ! grep -Eq -- "$alt" <<<"${listed[$4]}"; then
			fail "$1:$2: -run alternative '$alt' matches no test in $4"
		fi
	done < <(alternatives "$3")
}

check_fuzz() { # where, target, package
	load "$3"
	if ! grep -Fxq -- "$2" <<<"${listed[$3]}"; then
		fail "$1: -fuzz=$2 is not a fuzz target of $3"
	fi
}

for f in "$wf/ci.yml" "$wf/nightly.yml"; do
	n=0
	while IFS= read -r line; do
		n=$((n + 1))
		[[ $line == *"go test"* ]] || continue
		pkgs=$(awk '{ for (i = 1; i <= NF; i++) if ($i ~ /^\.\//) printf "%s ", $i }' <<<"$line")
		pkgs=${pkgs% }
		[[ -n $pkgs ]] || continue
		if [[ $line =~ -run[=\ ]\'([^\']*)\' || $line =~ -run[=\ ]([^\ \']+) ]]; then
			check_run "$f" "$n" "${BASH_REMATCH[1]}" "$pkgs"
		fi
		if [[ $line =~ -fuzz=([A-Za-z0-9_]+)([[:space:]]|$) ]]; then
			check_fuzz "$f:$n" "${BASH_REMATCH[1]}" "$pkgs"
		fi
	done <"$f"
done

# The nightly fuzz matrix: each `- target: X` followed by its `pkg: P`.
target=
while IFS= read -r line; do
	if [[ $line =~ ^[[:space:]]*-[[:space:]]target:[[:space:]]*([A-Za-z0-9_]+) ]]; then
		target=${BASH_REMATCH[1]}
	elif [[ -n $target && $line =~ ^[[:space:]]*pkg:[[:space:]]*([^[:space:]]+) ]]; then
		check_fuzz "$wf/nightly.yml matrix" "$target" "${BASH_REMATCH[1]}"
		target=
	fi
done <"$wf/nightly.yml"

exit $bad
