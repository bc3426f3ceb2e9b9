#!/usr/bin/env bash
# Fails when the tree holds a function that no shipped binary links and
# that scripts/reach_allow.txt does not list, or when the list names a
# function that is now linked or gone, so the list can only shrink.
#
# It builds every cmd/* and examples/* binary with inlining off (so an
# inlined function still has a symbol), lists their repro/... text
# symbols with `go tool nm`, and matches them against the func
# declarations of the non-test files outside benchmark/ (the frozen
# harness, a binary of its own that tests call). Generic instantiations
# count for their generic function, a package's init functions for its
# init.N symbols, and a value-receiver method linked only through its
# pointer wrapper counts as linked.
#
# Run from anywhere: ./scripts/check_reach.sh
set -euo pipefail

cd "$(dirname "$0")/.."
allow=scripts/reach_allow.txt
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

go build -gcflags=all=-l -o "$tmp/bin/" ./cmd/... ./examples/...

# Linked symbols, one per line, with each binary's main.X renamed to
# its package path and generic type arguments stripped.
for dir in cmd/*/ examples/*/; do
	dir=${dir%/}
	exe="$tmp/bin/$(basename "$dir")"
	[ -f "$exe" ] || continue
	go tool nm "$exe" | sed -nE 's/^ *[0-9a-f]+ [Tt] //p' | sed "s#^main\.#repro/$dir.#"
done | grep '^repro[/.]' | sed -E ':a; s/\[[^][]*\]//; ta' | sort -u >"$tmp/linked"

# Declared functions as "symbol file", in the linker's spelling:
# pkg.F, pkg.T.M for a value receiver, pkg.(*T).M for a pointer one.
find . -name '*.go' ! -name '*_test.go' ! -path './benchmark/*' \
	! -path '*/testdata/*' ! -path './.*' | sed 's#^\./##' | sort |
	while read -r f; do
		d=$(dirname "$f")
		pkg=repro
		[ "$d" = . ] || pkg="repro/$d"
		id='[A-Za-z_][A-Za-z0-9_]*'
		sed -nE \
			-e "s#^func \(($id )?\*($id)(\[[^]]*\])?\) ($id).*#$pkg.(*\2).\4 $f#p" \
			-e "s#^func \(($id )?($id)(\[[^]]*\])?\) ($id).*#$pkg.\2.\4 $f#p" \
			-e "s#^func ($id).*#$pkg.\1 $f#p" "$f"
	done | sort -u -k1,1 >"$tmp/declared"

awk 'NR == FNR {
	linked[$1] = 1
	if ($1 ~ /\.init\.[0-9]+$/) { p = $1; sub(/\.init\.[0-9]+$/, "", p); inits[p] = 1 }
	next
}
{
	s = $1
	if (s in linked) next
	if (s ~ /\.init$/) { p = s; sub(/\.init$/, "", p); if (p in inits) next }
	# pkg.T.M linked only as pkg.(*T).M
	if (s !~ /\(\*/ && match(s, /\.[A-Za-z_][A-Za-z0-9_]*\.[A-Za-z_][A-Za-z0-9_]*$/)) {
		split(substr(s, RSTART + 1), tm, ".")
		if ((substr(s, 1, RSTART) "(*" tm[1] ")." tm[2]) in linked) next
	}
	print
}' "$tmp/linked" "$tmp/declared" >"$tmp/unlinked"

# The allowlist: "symbol reason note", where symbol may be pkg.* for a
# whole package. Compare it both ways.
awk -v allowfile="$allow" '
BEGIN {
	split("harness interface test-seam user-api paper-shape", rs, " ")
	for (i in rs) reasons[rs[i]] = 1
	while ((getline line < allowfile) > 0) {
		n++
		if (line ~ /^[[:space:]]*(#|$)/) continue
		split(line, f, /[[:space:]]+/)
		if (!(f[2] in reasons) || f[3] == "") {
			printf "%s:%d: want \"symbol reason note\" with a reason among: harness interface test-seam user-api paper-shape\n", allowfile, n
			bad = 1
			continue
		}
		if (f[1] in allowed) { printf "%s:%d: %s listed twice\n", allowfile, n, f[1]; bad = 1 }
		allowed[f[1]] = n
	}
}
{
	pkg = $1; sub(/\.[^\/]*$/, "", pkg)
	if ($1 in allowed) { used[$1] = 1; one++; next }
	if ((pkg ".*") in allowed) { used[pkg ".*"] = 1; whole++; next }
	printf "unlisted: %s (%s) is linked by no binary\n", $1, $2
	bad = 1
}
END {
	for (s in allowed) if (!(s in used)) {
		printf "stale: %s (%s:%d) is linked by a binary or no longer declared; delete the entry\n", s, allowfile, allowed[s]
		bad = 1
	}
	if (bad) {
		print "check_reach: delete the unlinked code, or list it with its reason in " allowfile
		exit 1
	}
	printf "check_reach: %d functions no binary links: %d in whole-listed packages, %d listed one by one in %s\n", whole + one, whole, one, allowfile
}' "$tmp/unlinked"
