#!/usr/bin/env bash
# The repository's gate, every phase in order: the document caps, the
# cited names, the goldens, the reach list, no gob, `make verify`, the
# scale world, the service, replay, fuzz, example, benchmark and obs
# smokes, and the stress runs listed in scripts/stress.txt. The workflow
# runs it as its one step. Each phase is a ::group:: of the log, is
# killed past its own timeout and prints its wall time. The first phase
# that fails stops the run, named with its reason: timeout, exit <code>,
# or diff (a phase that may not change `git diff` did).
# Run from the repository root: ./scripts/ci.sh (or make ci).
set -uo pipefail

summary=()
started=$EPOCHREALTIME

since() { awk -v a="$1" -v b="$EPOCHREALTIME" 'BEGIN { printf "%.1f", b - a }'; }

# phase NAME SECONDS [nodiff] CMD... runs CMD, a command or a function
# below, under errexit and pipefail.
phase() {
	local name=$1 limit=$2 nodiff= before= t0=$EPOCHREALTIME rc reason= s
	shift 2
	if [ "$1" = nodiff ]; then
		nodiff=1
		before=$(git diff)
		shift
	fi
	echo "::group::$name"
	timeout "$limit" bash -eo pipefail -c '"$@"' "$name" "$@" </dev/null
	rc=$?
	if [ "$rc" -eq 124 ]; then
		reason="timeout (${limit} s)"
	elif [ "$rc" -ne 0 ]; then
		reason="exit $rc"
	elif [ -n "$nodiff" ] && [ "$(git diff)" != "$before" ]; then
		diff <(printf '%s\n' "$before") <(git diff) | head -40
		reason=diff
	fi
	s=$(since "$t0")
	echo "::endgroup::"
	summary+=("$(printf '%7s s  %s' "$s" "$name")")
	if [ -n "$reason" ]; then
		echo "ci: phase \"$name\" failed after $s s: $reason"
		exit 1
	fi
	echo "ci: $name: $s s"
}

# The documents describe the current tree, not its history (git keeps
# that): capped line counts, and a CHANGES.md entry is one paragraph
# under 600 characters (counted as characters: entries hold →, × and µ).
line_cap() {
	n=$(wc -l <"$1")
	[ "$n" -le "$2" ] || { echo "$1 has $n lines, cap $2"; exit 1; }
}
changes_entries() {
	export LC_ALL=C.UTF-8
	bad=0 i=0
	while IFS= read -r entry || [ -n "$entry" ]; do
		i=$((i + 1))
		n=$(printf '%s' "$entry" | wc -m)
		[ "$n" -lt 600 ] || { echo "CHANGES.md line $i has $n characters, cap 599"; bad=1; }
	done <CHANGES.md
	[ "$bad" -eq 0 ]
}

# Payloads cross the wire through satin's compiled codecs, each checked
# against its goldens: nothing may link a self-describing codec again.
no_gob() {
	deps=$(go list -deps -test ./...)
	if grep -qx encoding/gob <<<"$deps"; then
		echo "encoding/gob is imported by a package or a test"
		exit 1
	fi
}

# Every example builds and runs to completion within a minute, several
# times what the slowest (badlink, crash) needs.
examples() {
	dir=$(mktemp -d)
	trap 'rm -rf "$dir"' EXIT
	for ex in examples/*/; do
		ex=$(basename "$ex")
		go build -o "$dir/$ex" "./examples/$ex"
		timeout 60 "$dir/$ex" >"$dir/$ex.log" 2>&1 || { rc=$?; cat "$dir/$ex.log"; exit "$rc"; }
	done
}

# A short adaptive run serves a non-empty Prometheus exposition with the
# three metric families, and a JSONL event stream; the run is killed on
# every way out.
obs_smoke() {
	dir=$(mktemp -d) pid=
	trap 'kill $pid 2>/dev/null || true; rm -rf "$dir"' EXIT
	go build -o "$dir/satinrun" ./cmd/satinrun
	"$dir/satinrun" -app fib -size 22 -iters 200 -adapt \
		-obs-addr 127.0.0.1:18080 >"$dir/satinrun.log" 2>&1 &
	pid=$!
	for _ in $(seq 1 50); do
		curl -fsS http://127.0.0.1:18080/metrics >/dev/null 2>&1 && break
		sleep 0.2
	done
	sleep 2
	curl -fsS http://127.0.0.1:18080/metrics >"$dir/metrics.txt"
	test -s "$dir/metrics.txt"
	for family in repro_counter repro_gauge repro_hist_bucket; do
		grep -q "$family" "$dir/metrics.txt"
	done
	curl -fsS http://127.0.0.1:18080/events >"$dir/events.jsonl"
	test -s "$dir/events.jsonl"
}
export -f line_cap changes_entries no_gob examples obs_smoke

# The list runs as one function, so bash has read all of it before the
# first phase starts: an edit to this file during a run cannot derail it.
main() {
	phase "EXPERIMENTS.md length cap" 10 line_cap EXPERIMENTS.md 800
	phase "DESIGN.md length cap" 10 line_cap DESIGN.md 994
	phase "CHANGES.md entry length" 30 changes_entries
	phase "cited tests and symbols exist" 300 ./scripts/check_docs.sh
	phase "goldens are what the code prints" 120 nodiff make goldens
	phase "unlinked code is listed" 60 ./scripts/check_reach.sh
	phase "no gob in any package or test" 120 no_gob
	phase "make verify" 900 make verify
	phase "make scale" 90 make scale
	phase "satind service smoke" 300 make satind-smoke
	phase "record store replay smoke" 300 make replay-smoke
	phase "make fuzz-smoke" 600 make fuzz-smoke
	phase "examples" 600 examples
	phase "make bench-smoke" 600 make bench-smoke
	phase "obs endpoint smoke" 120 obs_smoke

	mapfile -t stress < <(grep -vE '^(#|$)' scripts/stress.txt)
	for line in "${stress[@]}"; do
		read -r race count limit pattern pkgs <<<"${line%%#*}"
		args=(-count="$count")
		[ "$race" = norace ] || args=(-race "${args[@]}")
		[ "$pattern" = - ] || args+=(-run "$pattern")
		# shellcheck disable=SC2086 # the package list splits into arguments
		phase "go test ${args[*]} $pkgs" "$limit" go test "${args[@]}" $pkgs
	done

	printf '%s\n' "${summary[@]}"
	echo "ci: all ${#summary[@]} phases passed in $(since "$started") s"
}
main; exit
