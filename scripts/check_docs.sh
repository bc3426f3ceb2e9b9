#!/usr/bin/env bash
# Fails when the documents no longer match the code. Every
# Test…/Benchmark…/Fuzz… name in DESIGN.md's fidelity table (section
# 2b) and in EXPERIMENTS.md's commands (lines that quote a `go test` or
# `go run` invocation) must appear in `go test -list`. Every backticked
# Go symbol in the fidelity table — `pkg.Name`, `pkg.Type.Member` or an
# unqualified `Type.member` — must resolve with `go doc -u`: a qualified
# one in the module's package of that name, an unqualified one in a
# package that declares the type. EXPERIMENTS.md's Figure 1 rows are
# checked by scripts/goldens.sh, which rewrites them. Every alternative
# of a scripts/stress.txt -run pattern must match a listed test.
# Run from the repository root: ./scripts/check_docs.sh
set -euo pipefail

table=$(awk '/^## 2b\./ { on = 1; next } /^## / { on = 0 } on' DESIGN.md)

names='\b(Test|Benchmark|Fuzz)[A-Z0-9_][A-Za-z0-9_]*'
cited=$( {
	printf '%s\n' "$table"
	grep -E '`go (test|run) ' EXPERIMENTS.md
} | grep -oE "$names" | sort -u)

listed=$(go test -list '.*' ./... | grep -E '^(Test|Benchmark|Fuzz)' | sort -u)

missing=$(comm -23 <(printf '%s\n' "$cited") <(printf '%s\n' "$listed"))
if [ -n "$missing" ]; then
	echo "cited in DESIGN.md's fidelity table or an EXPERIMENTS.md command, but not in go test -list:"
	printf '  %s\n' $missing
	exit 1
fi
echo "$(printf '%s\n' "$cited" | wc -l) cited test and benchmark names all exist"

# `go test -run` passes when its pattern matches nothing, so a renamed
# test would silently drop out of its stress run: every alternative of a
# scripts/stress.txt pattern (split at |) must match a test, fuzz target
# or example that `go test -list` lists in that line's packages.
alternatives=0
stale=()
while read -r _ _ _ pattern pkgs; do
	[ "$pattern" != - ] || continue
	# shellcheck disable=SC2086 # the package list splits into arguments
	runnable=$(go test -list '.*' $pkgs </dev/null | grep -E '^(Test|Fuzz|Example)')
	for alt in ${pattern//|/ }; do
		alternatives=$((alternatives + 1))
		grep -qE -- "$alt" <<<"$runnable" || stale+=("$alt in $pkgs")
	done
done < <(grep -vE '^(#|$)' scripts/stress.txt | sed 's/#.*//')
if [ ${#stale[@]} -gt 0 ]; then
	echo "a scripts/stress.txt pattern names no test that go test -list lists:"
	printf '  %s\n' "${stale[@]}"
	exit 1
fi
echo "$alternatives stress-run pattern alternatives all match a test"

# Backticked identifiers joined by dots; file paths (with a slash) and
# bare names are not symbols this check can place.
symbols=$(printf '%s\n' "$table" | grep -oE '`[^`]+`' | tr -d '`' |
	grep -E '^[A-Za-z_][A-Za-z0-9_]*(\.[A-Za-z_][A-Za-z0-9_]*)+$' | sort -u)
packages=$(go list -f '{{.Name}} {{.ImportPath}}' ./... | grep -v '^main ')

unresolved=()
for sym in $symbols; do
	first=${sym%%.*}
	if pkg=$(awk -v n="$first" '$1 == n { print $2; exit }' <<<"$packages") && [ -n "$pkg" ]; then
		go doc -u "$pkg" "${sym#*.}" >/dev/null 2>&1 || unresolved+=("$sym")
		continue
	fi
	found=
	for dir in $(grep -rlE --include='*.go' "^type $first\b" . | grep -v '_test\.go$' | xargs -r -n1 dirname | sort -u); do
		if go doc -u "$dir" "$sym" >/dev/null 2>&1; then
			found=1
			break
		fi
	done
	[ -n "$found" ] || unresolved+=("$sym")
done
if [ ${#unresolved[@]} -gt 0 ]; then
	echo "cited in DESIGN.md's fidelity table, but go doc -u finds no such symbol:"
	printf '  %s\n' "${unresolved[@]}"
	exit 1
fi
echo "$(printf '%s\n' "$symbols" | wc -l) cited code symbols all resolve"
