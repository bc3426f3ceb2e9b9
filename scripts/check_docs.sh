#!/usr/bin/env bash
# Fails when the documents no longer match the code. Every
# Test…/Benchmark…/Fuzz… name in DESIGN.md's fidelity table (section
# 2b) and in EXPERIMENTS.md's commands (lines that quote a `go test` or
# `go run` invocation) must appear in `go test -list`, and the Figure 1
# rows between EXPERIMENTS.md's figure1 markers must be the table that
# `go run ./cmd/gridsim -scenario all` prints last.
# Run from the repository root: ./scripts/check_docs.sh
set -euo pipefail

fig_doc=$(sed -n '/^<!-- figure1:begin -->$/,/^<!-- figure1:end -->$/p' EXPERIMENTS.md | sed '1d;$d')
fig_sim=$(go run ./cmd/gridsim -scenario all | sed '1,/^=== Figure 1/d')
if [ "$fig_doc" != "$fig_sim" ]; then
	echo "EXPERIMENTS.md's Figure 1 (<) differs from go run ./cmd/gridsim -scenario all (>):"
	diff <(printf '%s\n' "$fig_doc") <(printf '%s\n' "$fig_sim") || true
	exit 1
fi

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
echo "$(printf '%s\n' "$cited" | wc -l) cited test and benchmark names all exist; Figure 1 matches gridsim"
