#!/usr/bin/env bash
# Fails when a test or benchmark the documents cite no longer exists:
# every Test…/Benchmark…/Fuzz… name in DESIGN.md's fidelity table
# (section 2b) and in EXPERIMENTS.md's commands (lines that quote a
# `go test` or `go run` invocation) must appear in `go test -list`.
# Run from the repository root: ./scripts/check_docs.sh
set -euo pipefail

names='\b(Test|Benchmark|Fuzz)[A-Z0-9_][A-Za-z0-9_]*'
cited=$( {
	awk '/^## 2b\./ { on = 1; next } /^## / { on = 0 } on' DESIGN.md
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
