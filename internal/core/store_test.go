package core

import (
	"reflect"
	"testing"

	"causet/internal/interval"
	"causet/internal/poset"
	"causet/internal/vclock"
)

// storeProcs is the process count of the cut-store fixtures.
const storeProcs = 4

// growRing appends rounds of a token ring to b: hop p is a send on p and its
// receive on p+1, so every process has two events per round (positions
// 2r+1 and 2r+2 in round r) and each round reaches every process.
func growRing(t *testing.T, b *poset.Builder, rounds int) {
	t.Helper()
	for r := 0; r < rounds; r++ {
		for p := 0; p < storeProcs; p++ {
			if _, _, err := b.SendRecv(p, (p+1)%storeProcs); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// nextEpoch views b and makes the store's Analysis of that prefix, with
// cold clocks.
func nextEpoch(t *testing.T, st *CutStore, b *poset.Builder) *Analysis {
	t.Helper()
	ex, err := b.View()
	if err != nil {
		t.Fatal(err)
	}
	return st.Analysis(ex, vclock.New(ex))
}

// roundInterval is process p's two events of ring round r.
func roundInterval(ex *poset.Execution, p, r int) *interval.Interval {
	return interval.MustNew(ex, []poset.EventID{{Proc: p, Pos: 2*r + 1}, {Proc: p, Pos: 2*r + 2}})
}

// coldCuts builds iv's cuts with an offline Analysis of ex, the oracle a
// store-backed lookup must match.
func coldCuts(ex *poset.Execution, iv *interval.Interval) *IntervalCuts {
	return NewAnalysis(ex).Cuts(iv)
}

// TestCutStoreAdmitsOnlyStableCuts checks the store's admission rule: a
// build enters the store exactly when its up-cuts are epoch-stable, and
// every lookup returns the cuts a cold offline build of the prefix gives.
func TestCutStoreAdmitsOnlyStableCuts(t *testing.T) {
	b := poset.NewBuilder(storeProcs)
	growRing(t, b, 3)
	st := NewCutStore()
	a := nextEpoch(t, st, b)
	var stable, unstable int
	for r := 0; r < 3; r++ {
		for p := 0; p < storeProcs; p++ {
			iv := roundInterval(a.Execution(), p, r)
			ic := a.Cuts(iv)
			if !reflect.DeepEqual(ic, coldCuts(a.Execution(), iv)) {
				t.Errorf("p%d round %d: store-backed cuts differ from a cold build", p, r)
			}
			stored := st.cuts(iv, a.epoch) != nil
			if stored != ic.upStable {
				t.Errorf("p%d round %d: stored=%t, upStable=%t", p, r, stored, ic.upStable)
			}
			if ic.upStable {
				stable++
			} else {
				unstable++
			}
		}
	}
	if stable == 0 || unstable == 0 {
		t.Fatalf("fixture has %d stable and %d unstable intervals; want both kinds", stable, unstable)
	}
	if st.Len() != stable {
		t.Errorf("store holds %d entries, want %d", st.Len(), stable)
	}
}

// TestCutStoreRebuildsUntilStable follows one interval across epochs: while
// its up-cuts still fall back to TopPos each epoch rebuilds it in its own
// overlay; the first stable build enters the store, and later epochs reuse
// it without building. An older epoch never reads the newer stored entry.
func TestCutStoreRebuildsUntilStable(t *testing.T) {
	b := poset.NewBuilder(storeProcs)
	growRing(t, b, 1)
	st := NewCutStore()
	a1 := nextEpoch(t, st, b)
	// p0's receive closes the round, so nothing follows it yet.
	iv := roundInterval(a1.Execution(), 0, 0)
	ic1 := a1.Cuts(iv)
	if ic1.upStable || st.Len() != 0 {
		t.Fatalf("epoch 1: upStable=%t, store has %d entries; want an unstable build kept out of the store", ic1.upStable, st.Len())
	}

	// p0's last event now has a follower on p0 and p1 only.
	if _, _, err := b.SendRecv(0, 1); err != nil {
		t.Fatal(err)
	}
	a2 := nextEpoch(t, st, b)
	ic2 := a2.Cuts(iv)
	if a2.CutBuilds() != 1 || ic2.upStable || st.Len() != 0 {
		t.Fatalf("epoch 2: builds=%d upStable=%t entries=%d; want one unstable rebuild", a2.CutBuilds(), ic2.upStable, st.Len())
	}

	growRing(t, b, 2)
	a3 := nextEpoch(t, st, b)
	ic3 := a3.Cuts(iv)
	if a3.CutBuilds() != 1 || !ic3.upStable || st.Len() != 1 {
		t.Fatalf("epoch 3: builds=%d upStable=%t entries=%d; want one stable build that enters the store", a3.CutBuilds(), ic3.upStable, st.Len())
	}
	if !reflect.DeepEqual(ic3, coldCuts(a3.Execution(), iv)) {
		t.Error("epoch 3: cuts differ from a cold build")
	}

	growRing(t, b, 1)
	a4 := nextEpoch(t, st, b)
	if ic4 := a4.Cuts(iv); ic4 != ic3 || a4.CutBuilds() != 0 {
		t.Errorf("epoch 4: builds=%d, same entry=%t; want the stored cuts with no build", a4.CutBuilds(), ic4 == ic3)
	}

	// Epoch 1 predates the stored entry; it keeps its own build, which is
	// what a cold build of its prefix gives.
	if got := a1.Cuts(iv); got != ic1 || !reflect.DeepEqual(got, coldCuts(a1.Execution(), iv)) {
		t.Error("epoch 1: lookup after the store filled does not return its own prefix's cuts")
	}
}

// TestCutStoreServesStableProxyCuts checks that stable proxy cuts, and the
// proxy intervals' own cuts, are served from the store to later epochs
// without a second ProxyCutBuilds, while unstable proxies stay per epoch.
func TestCutStoreServesStableProxyCuts(t *testing.T) {
	b := poset.NewBuilder(storeProcs)
	growRing(t, b, 3)
	st := NewCutStore()
	a1 := nextEpoch(t, st, b)
	ex := a1.Execution()
	// Round 0 across processes 0 and 1: send (0,1), receive (1,1), send (1,2).
	iv := interval.MustNew(ex, []poset.EventID{{Proc: 0, Pos: 1}, {Proc: 1, Pos: 1}, {Proc: 1, Pos: 2}})
	last := roundInterval(ex, 0, 2)
	var pcs [2]*ProxyCuts
	for _, k := range []interval.ProxyKind{interval.ProxyL, interval.ProxyU} {
		if pcs[k] = a1.ProxyCuts(iv, k); !pcs[k].Cuts.upStable {
			t.Fatalf("%v proxy of round 0 is not stable", k)
		}
	}
	if lastU := a1.ProxyCuts(last, interval.ProxyU); lastU.Cuts.upStable {
		t.Fatal("U proxy of the last round is stable; want an unstable fixture")
	}
	if a1.ProxyCutBuilds() != 3 {
		t.Fatalf("epoch 1: %d proxy builds, want 3", a1.ProxyCutBuilds())
	}

	growRing(t, b, 1)
	a2 := nextEpoch(t, st, b)
	for k, want := range pcs {
		kind := interval.ProxyKind(k)
		if got := a2.ProxyCuts(iv, kind); got != want {
			t.Errorf("epoch 2: %v proxy is not the stored one", kind)
		}
		if got := a2.Cuts(want.IV); got != want.Cuts {
			t.Errorf("epoch 2: cuts of the %v proxy interval are not the stored ones", kind)
		}
	}
	if a2.ProxyCutBuilds() != 0 || a2.CutBuilds() != 0 {
		t.Errorf("epoch 2: %d proxy builds and %d cut builds, want none", a2.ProxyCutBuilds(), a2.CutBuilds())
	}
	if st.proxyCuts(last, interval.ProxyU, a2.epoch) != nil {
		t.Error("an unstable proxy entered the store")
	}
	a2.ProxyCuts(last, interval.ProxyU)
	if a2.ProxyCutBuilds() != 1 {
		t.Errorf("epoch 2: unstable proxy: %d builds, want a rebuild", a2.ProxyCutBuilds())
	}
}

// TestCutStoreCompactSweep checks the compaction sweep: every entry whose
// interval — proxy intervals included — owns an event at or below the
// watermark leaves the store, every other entry stays, and a compacted
// interval cannot enter afterwards.
func TestCutStoreCompactSweep(t *testing.T) {
	const rounds = 6
	b := poset.NewBuilder(storeProcs)
	growRing(t, b, rounds)
	st := NewCutStore()
	a := nextEpoch(t, st, b)
	ex := a.Execution()
	// Round 1's intervals stay unqueried, so one can be offered to the
	// store after the sweep.
	for _, r := range []int{0, 2, 3, 4} {
		for p := 0; p < storeProcs; p++ {
			iv := roundInterval(ex, p, r)
			a.Cuts(iv)
			a.ProxyCuts(iv, interval.ProxyL)
			a.ProxyCuts(iv, interval.ProxyU)
		}
	}
	before := make([]*interval.Interval, 0, st.Len())
	for iv := range st.m {
		before = append(before, iv)
	}
	// Through round 2's first event on every process: round 2's intervals
	// lose one event, their U proxies (the second event) lose none.
	base := []int{5, 5, 5, 5}
	owns := func(iv *interval.Interval) bool {
		for _, e := range iv.Events() {
			if e.Pos <= base[e.Proc] {
				return true
			}
		}
		return false
	}
	var wantGone int
	var proxyKept bool
	for _, iv := range before {
		if owns(iv) {
			wantGone++
		} else if iv.Size() == 1 && iv.Events()[0].Pos == 6 {
			proxyKept = true
		}
	}
	if wantGone == 0 || wantGone == len(before) || !proxyKept {
		t.Fatalf("fixture: %d of %d entries to drop, proxy kept %t; want a mix including a kept proxy", wantGone, len(before), proxyKept)
	}
	if got := st.Compact(base); got != wantGone {
		t.Errorf("Compact dropped %d entries, want %d", got, wantGone)
	}
	for _, iv := range before {
		_, present := st.m[iv]
		if present == owns(iv) {
			t.Errorf("interval %v: present=%t after the sweep, owns a compacted event=%t", iv, present, owns(iv))
		}
	}
	n := st.Len()
	if n != len(before)-wantGone {
		t.Errorf("store holds %d entries, want %d", n, len(before)-wantGone)
	}
	growRing(t, b, 1)
	a2 := nextEpoch(t, st, b)
	if ic := a2.Cuts(roundInterval(ex, 0, 1)); !ic.upStable || st.Len() != n {
		t.Errorf("a compacted interval was admitted: upStable=%t, entries %d → %d", ic.upStable, n, st.Len())
	}
}
