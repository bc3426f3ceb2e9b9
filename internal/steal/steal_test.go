package steal

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/core"
)

// members indexes a snapshot. Convention: "c0/xx" lives in cluster c0,
// "fs1/xx" in fs1.
func members(ids ...string) *View {
	var ms []Member
	for _, id := range ids {
		ms = append(ms, Member{ID: core.NodeID(id), Cluster: core.ClusterID(id[:strings.IndexByte(id, '/')])})
	}
	v := NewView()
	v.Rebuild(ms)
	return v
}

func TestCRSSlotDiscipline(t *testing.T) {
	e := New(CRS, "c0/00", "c0", 1)
	ms := members("c0/01", "c0/02", "c1/00", "c1/01")

	d := e.NextView(0, ms)
	if !d.HasAsync || !d.HasSync {
		t.Fatalf("first round should fill both slots: %+v", d)
	}
	if d.Async.Cluster == "c0" {
		t.Fatalf("async victim %v is local", d.Async)
	}
	if d.Sync.Cluster != "c0" || d.SyncWide {
		t.Fatalf("CRS sync victim must be local: %+v", d)
	}
	// Both slots occupied: nothing new until a completion.
	if d2 := e.NextView(0, ms); d2.HasAsync || d2.HasSync {
		t.Fatalf("slots full but Next issued %+v", d2)
	}
	if !e.Outstanding() {
		t.Fatal("Outstanding = false with both slots in flight")
	}
	e.SyncDone(false)
	if d3 := e.NextView(0, ms); !d3.HasSync || d3.HasAsync {
		t.Fatalf("after SyncDone only the sync slot should refill: %+v", d3)
	}
	e.AsyncDone(false)
	e.SyncDone(false)
	if e.Outstanding() {
		t.Fatal("Outstanding = true with all slots cleared")
	}
}

func TestCRSNeverStealsWideSynchronously(t *testing.T) {
	e := New(CRS, "c0/00", "c0", 7)
	ms := members("c0/01", "c1/00", "c1/01", "c2/00")
	for i := 0; i < 200; i++ {
		d := e.NextView(float64(i), ms)
		if d.HasSync {
			if d.SyncWide || d.Sync.Cluster != "c0" {
				t.Fatalf("round %d: CRS issued a synchronous WAN steal: %+v", i, d)
			}
			e.SyncDone(false)
		}
		if d.HasAsync {
			e.AsyncDone(false)
		}
	}
	if s := e.Stats(); s.SyncWide != 0 {
		t.Fatalf("CRS paid %d synchronous WAN round trips", s.SyncWide)
	}
}

func TestCRSOnlyLocalsNoAsync(t *testing.T) {
	e := New(CRS, "c0/00", "c0", 3)
	d := e.NextView(0, members("c0/01", "c0/02"))
	if d.HasAsync {
		t.Fatalf("no remote clusters but async victim %v", d.Async)
	}
	if !d.HasSync {
		t.Fatal("local candidates but no sync victim")
	}
}

func TestRandomPaysWANSynchronously(t *testing.T) {
	e := New(Random, "c0/00", "c0", 11)
	ms := members("c0/01", "c1/00", "c1/01", "c1/02")
	sawWide := false
	for i := 0; i < 100; i++ {
		d := e.NextView(0, ms)
		if d.HasAsync {
			t.Fatalf("Random policy issued an async steal: %+v", d)
		}
		if !d.HasSync {
			t.Fatal("candidates available but no victim")
		}
		if d.SyncWide {
			sawWide = true
			if d.Sync.Cluster == "c0" {
				t.Fatalf("SyncWide set for local victim %+v", d.Sync)
			}
		}
		e.SyncDone(false)
	}
	if !sawWide {
		t.Fatal("uniform selection over 3/4 remote candidates never drew one")
	}
	if s := e.Stats(); s.SyncWide == 0 {
		t.Fatal("stats recorded no synchronous WAN attempts")
	}
}

func TestNoCandidates(t *testing.T) {
	for _, p := range []Policy{CRS, Random} {
		e := New(p, "c0/00", "c0", 1)
		d := e.NextView(0, members("c0/00")) // only ourselves
		if d.HasSync || d.HasAsync {
			t.Fatalf("policy %v stole from itself: %+v", p, d)
		}
	}
}

func TestBackoffGrowsAndResets(t *testing.T) {
	e := New(CRS, "c0/00", "c0", 1)
	if b := e.BackoffSec(); b != 0.002 {
		t.Fatalf("initial backoff = %v, want 0.002", b)
	}
	for i := 0; i < 3; i++ {
		e.SyncDone(false)
	}
	if b := e.BackoffSec(); b != 0.016 {
		t.Fatalf("backoff after 3 failures = %v, want 0.016", b)
	}
	for i := 0; i < 20; i++ {
		e.SyncDone(false)
	}
	if b := e.BackoffSec(); b != 0.25 {
		t.Fatalf("backoff cap = %v, want 0.25", b)
	}
	e.SyncDone(true)
	if b := e.BackoffSec(); b != 0.002 {
		t.Fatalf("backoff after a hit = %v, want reset to 0.002", b)
	}
}

func TestAsyncStalledThreshold(t *testing.T) {
	e := New(CRS, "c0/00", "c0", 1)
	ms := members("c1/00")
	d := e.NextView(10.0, ms)
	if !d.HasAsync {
		t.Fatal("no async steal issued")
	}
	if e.AsyncStalled(10.02, 0.05) {
		t.Fatal("stalled before the threshold elapsed")
	}
	if !e.AsyncStalled(10.06, 0.05) {
		t.Fatal("not stalled after the threshold elapsed")
	}
	e.AsyncDone(false)
	if e.AsyncStalled(99, 0.05) {
		t.Fatal("stalled with no steal in flight")
	}
}

// TestSeedForMatchesLegacyDerivation pins the per-node stream formula
// both runtimes now share: seed ^ FNV-64a(id) — the derivation the
// satin node used before the kernel was extracted, so seeded runs
// stay replayable.
func TestSeedForMatchesLegacyDerivation(t *testing.T) {
	h := fnv.New64a()
	h.Write([]byte("fs0/03"))
	want := int64(42) ^ int64(h.Sum64())
	if got := SeedFor(42, "fs0/03"); got != want {
		t.Fatalf("SeedFor = %d, want %d", got, want)
	}
	if SeedFor(42, "fs0/03") == SeedFor(42, "fs0/04") {
		t.Fatal("distinct nodes derived the same stream")
	}
}

// TestCrossRuntimeVictimParity drives one membership/steal script
// through two engines constructed exactly as the DES driver
// (internal/des.addNode) and the satin driver (satin.StartNode) build
// theirs — same policy, identity and SeedFor stream — and requires
// the identical victim sequence. This is the cross-runtime parity the
// refactor pins: victim selection lives in ONE kernel, so the two
// runtimes cannot drift.
func TestCrossRuntimeVictimParity(t *testing.T) {
	const runSeed = 42
	self, cluster := core.NodeID("fs0/00"), core.ClusterID("fs0")

	// Membership churn script: (snapshot, sync outcome, async outcome).
	script := []struct {
		members  *View
		syncGot  bool
		asyncGot bool
	}{
		{members("fs0/01", "fs0/02", "fs1/00", "fs1/01"), false, false},
		{members("fs0/01", "fs0/02", "fs1/00", "fs1/01"), true, false},
		{members("fs0/01", "fs1/00"), false, true},
		{members("fs0/01", "fs0/02", "fs0/03", "fs2/00"), false, false},
		{members("fs2/00"), true, true},
		{members("fs0/01", "fs0/02", "fs1/00", "fs1/01", "fs2/00"), true, true},
	}

	run := func(e *Engine) []core.NodeID {
		var seq []core.NodeID
		for i, step := range script {
			d := e.NextView(float64(i), step.members)
			if d.HasAsync {
				seq = append(seq, d.Async.ID)
			}
			if d.HasSync {
				seq = append(seq, d.Sync.ID)
			}
			if d.HasSync {
				e.SyncDone(step.syncGot)
			}
			if d.HasAsync {
				e.AsyncDone(step.asyncGot)
			}
		}
		return seq
	}

	desEngine := New(CRS, self, cluster, SeedFor(runSeed, self))
	satinEngine := New(CRS, self, cluster, SeedFor(runSeed, self))
	desSeq := run(desEngine)
	satinSeq := run(satinEngine)

	if len(desSeq) == 0 {
		t.Fatal("script produced no victims")
	}
	if len(desSeq) != len(satinSeq) {
		t.Fatalf("victim sequences diverged: %v vs %v", desSeq, satinSeq)
	}
	for i := range desSeq {
		if desSeq[i] != satinSeq[i] {
			t.Fatalf("victim %d differs: %v vs %v", i, desSeq[i], satinSeq[i])
		}
	}
}

// TestViewSelectsOnlyLegalVictims drives NextView over randomized,
// interleaved memberships (self present in about half) and checks what
// the index arithmetic must guarantee whatever the snapshot looks like:
// never self, CRS sync victims local and async victims remote, every
// directive's positions naming its victims in the snapshot, and — the
// remote remap — every remote member reachable, in snapshot order.
// Every seventh rebuild drops the home cluster whole and every fifth
// another one, each back in the next: the engine's cached home group
// must follow.
func TestViewSelectsOnlyLegalVictims(t *testing.T) {
	self, home := core.NodeID("c1/01"), core.ClusterID("c1")
	for seed := int64(1); seed <= 20; seed++ {
		script := rand.New(rand.NewSource(seed * 977))
		crs := New(CRS, self, home, SeedFor(seed, self))
		rnd := New(Random, self, home, SeedFor(seed, self))
		view := NewView()
		for step := 0; step < 120; step++ {
			var ms []Member
			for c := 0; c < script.Intn(4); c++ {
				cl := core.ClusterID(fmt.Sprintf("c%d", c))
				for n := 0; n < script.Intn(6); n++ {
					id := core.NodeID(fmt.Sprintf("%s/%02d", cl, n))
					if id == self && script.Intn(2) == 0 {
						continue
					}
					ms = append(ms, Member{ID: id, Cluster: cl})
				}
			}
			script.Shuffle(len(ms), func(i, j int) { ms[i], ms[j] = ms[j], ms[i] })
			var drop core.ClusterID
			switch {
			case step%7 == 3:
				drop = home
			case step%5 == 1:
				drop = "c0"
			}
			if drop != "" {
				kept := ms[:0]
				for _, m := range ms {
					if m.Cluster != drop {
						kept = append(kept, m)
					}
				}
				ms = kept
			}
			view.Rebuild(ms)
			at := func(policy string, d Directive) {
				if d.HasSync && ms[d.SyncAt] != d.Sync || d.HasAsync && ms[d.AsyncAt] != d.Async {
					t.Fatalf("seed %d step %d: %s directive %+v names other members by position (members %v)", seed, step, policy, d, ms)
				}
			}

			var remotes []Member
			for _, m := range ms {
				if m.Cluster != home {
					remotes = append(remotes, m)
				}
			}
			for j, want := range remotes {
				if got := view.members[view.remoteAt(view.group(home), j)]; got != want {
					t.Fatalf("seed %d step %d: remote %d = %v, want %v (members %v)", seed, step, j, got, want, ms)
				}
			}

			d := crs.NextView(float64(step), view)
			at("CRS", d)
			if d.HasSync && (d.Sync.ID == self || d.Sync.Cluster != home || d.SyncWide) {
				t.Fatalf("seed %d step %d: CRS sync victim %+v (members %v)", seed, step, d, ms)
			}
			if d.HasAsync && d.Async.Cluster == home {
				t.Fatalf("seed %d step %d: CRS async victim %v is local", seed, step, d.Async)
			}
			if d.HasSync {
				crs.SyncDone(false)
			}
			if d.HasAsync {
				crs.AsyncDone(false)
			}
			others := len(ms)
			for _, m := range ms {
				if m.ID == self {
					others--
				}
			}
			r := rnd.NextView(float64(step), view)
			at("Random", r)
			if r.HasSync != (others > 0) || r.HasAsync || (r.HasSync && (r.Sync.ID == self || r.SyncWide != (r.Sync.Cluster != home))) {
				t.Fatalf("seed %d step %d: Random directive %+v with %d other members", seed, step, r, others)
			}
			if r.HasSync {
				rnd.SyncDone(false)
			}
		}
	}
}

// Rounds and replies count into the engine alone; Publish adds to the
// process's steal/* series what the engine counted since it last
// published, so publishing twice adds nothing the second time.
func TestPublishAddsWhatTheEngineCounted(t *testing.T) {
	series := func() Stats {
		return Stats{
			SyncLocal: int64(obsSyncLocal.Value()), SyncWide: int64(obsSyncWide.Value()),
			Async: int64(obsAsync.Value()), Hits: int64(obsHits.Value()), Misses: int64(obsMisses.Value()),
		}
	}
	start := series()
	view := members("c0/01", "c0/02", "c1/00")
	crs, rnd := New(CRS, "c0/00", "c0", 1), New(Random, "c0/00", "c0", 1)
	round := func() {
		for i := 0; i < 10; i++ {
			if d := crs.NextView(float64(i), view); d.HasSync {
				crs.SyncDone(i%3 == 0)
				crs.AsyncDone(i%2 == 0)
			}
			rnd.NextView(float64(i), view)
			rnd.SyncDone(i%4 == 0)
		}
	}
	sum := func() Stats {
		a, b := crs.Stats(), rnd.Stats()
		return Stats{a.SyncLocal + b.SyncLocal, a.SyncWide + b.SyncWide, a.Async + b.Async, a.Hits + b.Hits, a.Misses + b.Misses}
	}
	moved := func() Stats {
		s := series()
		return Stats{s.SyncLocal - start.SyncLocal, s.SyncWide - start.SyncWide, s.Async - start.Async, s.Hits - start.Hits, s.Misses - start.Misses}
	}
	round()
	if m := moved(); m != (Stats{}) {
		t.Fatalf("rounds moved the process series by %+v before any Publish", m)
	}
	for pass := 0; pass < 2; pass++ {
		crs.Publish()
		rnd.Publish()
		crs.Publish()
		if m, want := moved(), sum(); m != want || want.SyncWide == 0 || want.Async == 0 || want.Misses == 0 {
			t.Fatalf("pass %d: the series moved by %+v, the engines counted %+v", pass, m, want)
		}
		round()
	}
}

// NextViewInto over one reused Directive tells its caller what NextView
// returns: the flags every round, and the victims of every slot the
// round filled, while slots left empty keep an earlier round's victims.
func TestNextViewIntoReusedDirective(t *testing.T) {
	self, home := core.NodeID("c1/01"), core.ClusterID("c1")
	for _, policy := range []Policy{CRS, Random} {
		e, twin := New(policy, self, home, 7), New(policy, self, home, 7)
		script := rand.New(rand.NewSource(7))
		view := NewView()
		var d Directive
		stale := 0
		for step := 0; step < 500; step++ {
			if step%10 == 0 {
				var ms []Member
				for c := 0; c < 1+script.Intn(4); c++ {
					cl := core.ClusterID(fmt.Sprintf("c%d", c))
					for n := 0; n < script.Intn(6); n++ {
						ms = append(ms, Member{ID: core.NodeID(fmt.Sprintf("%s/%02d", cl, n)), Cluster: cl})
					}
				}
				view.Rebuild(ms)
			}
			e.NextViewInto(float64(step), view, &d)
			want := twin.NextView(float64(step), view)
			got := d
			if !got.HasSync {
				if got.Sync != (Member{}) {
					stale++
				}
				got.Sync, got.SyncAt = Member{}, 0
			}
			if !got.HasAsync {
				got.Async, got.AsyncAt = Member{}, 0
			}
			if got != want {
				t.Fatalf("policy %v step %d: into %+v, NextView %+v", policy, step, d, want)
			}
			hit := script.Intn(3) == 0
			for _, eng := range []*Engine{e, twin} {
				if eng.syncOut && step%2 == 0 {
					eng.SyncDone(hit)
				}
				if eng.asyncOut && step%3 == 0 {
					eng.AsyncDone(hit)
				}
			}
		}
		if stale == 0 {
			t.Errorf("policy %v: no round left an earlier victim in an empty slot", policy)
		}
	}
}
