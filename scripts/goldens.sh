#!/usr/bin/env bash
# Rewrites every golden the simulator owns from what the code prints:
#   - internal/expt/testdata/periodlog.digest, from TestPeriodLogGolden's
#     "period log digest X, want Y" failures;
#   - benchmark/testdata/{des_paper,des_scale}.digest, from the
#     harness's "digest got X want Y" lines;
#   - EXPERIMENTS.md's Figure 1 rows between the figure1 markers, from
#     the table `go run ./cmd/gridsim -scenario all` prints last.
# Each digest file first gets a placeholder, so that every checker fails
# and prints the value it computed; that value is written back. On an
# unchanged tree the files come out byte for byte as they went in, which
# is what CI checks (`make goldens && git diff --exit-code`). The wire
# byte goldens and the payload fingerprints are deliberately not here: a
# codec layout change is made by hand.
# Run from the repository root: ./scripts/goldens.sh (or make goldens).
set -euo pipefail

placeholder=regenerate

# save keeps a copy of a file before it is rewritten; if the script
# fails or is stopped, every saved file is put back.
backup=$(mktemp -d)
trap 'rm -rf "$backup"' EXIT
trap 'cp -R "$backup"/. .; exit 1' ERR INT TERM
save() {
	mkdir -p "$backup/$(dirname "$1")"
	cp "$1" "$backup/$1"
}

# The period-log digests: a row per run, in the file's order, comments
# kept; a run with no row is appended, a row that names no run dropped.
f=internal/expt/testdata/periodlog.digest
save "$f"
awk -v p="$placeholder" '/^#/ || NF == 0 { print; next } { print $1, p }' "$backup/$f" > "$f"
out=$(go test -count=1 -run '^TestPeriodLogGolden$' ./internal/expt 2>&1 || true)
got=$(printf '%s\n' "$out" | awk '
	/^    --- FAIL: TestPeriodLogGolden\// { name = substr($3, length("TestPeriodLogGolden/") + 1) }
	/ period log digest [0-9a-f]+, want / { d = $0; sub(/.* period log digest /, "", d); sub(/,.*/, "", d); print name, d }')
failed=$(printf '%s\n' "$out" | grep -c '^    --- FAIL: TestPeriodLogGolden/' || true)
if [ -z "$got" ] || [ "$(printf '%s\n' "$got" | wc -l)" -ne "$failed" ]; then
	printf '%s\n' "$out"
	echo "goldens: a TestPeriodLogGolden run failed without printing its digest"
	false
fi
printf '%s\n' "$got" | sort | awk '
	NR == FNR { got[$1] = $2; order[++n] = $1; next }
	/^#/ || NF == 0 { print; next }
	$1 in got { print $1, got[$1]; seen[$1] = 1 }
	END { for (i = 1; i <= n; i++) if (!(order[i] in seen)) print order[i], got[order[i]] }' \
	- "$backup/$f" > "$f"

# The harness's digests: every timed op of a run prints the same one.
for w in des_paper des_scale; do
	f=benchmark/testdata/$w.digest
	save "$f"
	echo "$placeholder" > "$f"
	out=$(go run ./benchmark -workload "$w" -seconds 0.1 2>&1 >/dev/null || true)
	d=$(printf '%s\n' "$out" | sed -n "s/^benchmark: $w: digest got \([0-9a-f]*\) want $placeholder\$/\1/p" | sort -u)
	if [ -z "$d" ] || [ "$(printf '%s\n' "$d" | wc -l)" -ne 1 ]; then
		printf '%s\n' "$out"
		echo "goldens: $w printed no single digest"
		false
	fi
	echo "$d" > "$f"
done

# Figure 1: the rows between the markers are gridsim's last table.
f=EXPERIMENTS.md
[ "$(grep -cxE '<!-- figure1:(begin|end) -->' "$f")" -eq 2 ] || { echo "goldens: $f needs one figure1:begin and one figure1:end marker"; false; }
fig=$(go run ./cmd/gridsim -scenario all | sed '1,/^=== Figure 1/d')
[ -n "$fig" ] || { echo "goldens: gridsim printed no Figure 1 table"; false; }
save "$f"
FIG="$fig" awk '
	/^<!-- figure1:end -->$/ { print ENVIRON["FIG"]; on = 0 }
	!on { print }
	/^<!-- figure1:begin -->$/ { on = 1 }' "$backup/$f" > "$f"

trap - ERR INT TERM
echo "goldens written: $(git status --porcelain -- internal/expt/testdata benchmark/testdata EXPERIMENTS.md | wc -l) file(s) differ from git"
