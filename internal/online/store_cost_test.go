//go:build !race

package online

import (
	"fmt"
	"runtime"
	"sort"
	"testing"

	"causet/internal/obs"
	"causet/internal/poset"
	"causet/internal/sim"
)

// settleCost is what one settling Check cost: its heap allocations and the
// cuts it built.
type settleCost struct{ allocs, builds int64 }

// ringSettleCosts replays the E14 ring (procs processes, rounds rounds, one
// R1 condition per consecutive round pair) through the online monitor with a
// Check after every event, and measures every Check that settles a
// condition. With a policy, retention runs too and maxEntries is the largest
// cut-store size seen.
func ringSettleCosts(t *testing.T, procs, rounds int, policy *RetentionPolicy) (costs []settleCost, maxEntries int) {
	t.Helper()
	res := sim.MustGenerate(sim.Config{Pattern: sim.Ring, Procs: procs, Rounds: rounds, Seed: 1})
	s := NewStream(procs)
	reg := obs.New()
	s.Instrument(reg, nil)
	m := NewMonitor(s)
	m.Instrument(reg)
	if policy != nil {
		if err := m.SetRetention(*policy); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i+1 < len(res.Phases); i++ {
		mustAdd(t, m, fmt.Sprintf("ordered-%d", i), fmt.Sprintf("R1(%s, %s)", res.Phases[i].Name, res.Phases[i+1].Name))
	}
	phaseOf := make(map[poset.EventID]int)
	remaining := make([]int, len(res.Phases))
	for i, ph := range res.Phases {
		remaining[i] = len(ph.Events)
		for _, e := range ph.Events {
			phaseOf[e] = i
		}
	}
	settlements := reg.Counter("online.settlements")
	cutBuilds := reg.Counter("core.cut_builds")
	var m0, m1 runtime.MemStats
	_, err := ReplayStepsPinned(s, res.Exec, func(s *Stream, e poset.EventID) error {
		defer func() { maxEntries = max(maxEntries, s.store.Len()) }()
		pi := phaseOf[e]
		if err := m.Observe(res.Phases[pi].Name, e); err != nil {
			return err
		}
		if remaining[pi]--; remaining[pi] > 0 {
			// Only a completion makes a condition ready.
			m.Check()
			return nil
		}
		if err := m.Complete(res.Phases[pi].Name); err != nil {
			return err
		}
		settled, built := settlements.Value(), cutBuilds.Value()
		runtime.ReadMemStats(&m0)
		m.Check()
		runtime.ReadMemStats(&m1)
		if settlements.Value() > settled {
			costs = append(costs, settleCost{allocs: int64(m1.Mallocs - m0.Mallocs), builds: cutBuilds.Value() - built})
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(costs) != len(res.Phases)-1 {
		t.Fatalf("%d settling Checks, want %d", len(costs), len(res.Phases)-1)
	}
	return costs, maxEntries
}

// costStats summarizes the settling Checks of one run: the median and
// mean allocations, and the fewest and most cuts one settlement built.
func costStats(costs []settleCost) (medianAllocs int64, meanAllocs float64, minBuilds, maxBuilds int64) {
	allocs := make([]int64, len(costs))
	minBuilds, maxBuilds = costs[0].builds, costs[0].builds
	var sum int64
	for i, c := range costs {
		allocs[i] = c.allocs
		sum += c.allocs
		minBuilds, maxBuilds = min(minBuilds, c.builds), max(maxBuilds, c.builds)
	}
	sort.Slice(allocs, func(i, j int) bool { return allocs[i] < allocs[j] })
	return allocs[len(allocs)/2], float64(sum) / float64(len(costs)), minBuilds, maxBuilds
}

// TestSettleCostIndependentOfStreamLength is the deterministic cost gate for
// the cut store: a settling Check costs O(its operands), not O(history).
// On the E14 ring at 8×256 and 8×2,048 rounds, the typical (median) settling
// Check makes the same number of allocations and every settlement builds
// the same number of cuts; the mean may exceed the smaller run's by at most
// one allocation, so nothing that grows with the stream (a per-epoch cache
// copy costs one allocation per carried interval) can hide in the tail.
// Under a MaxEvents retention policy the cut store holds only intervals
// inside the retained window, however long the stream runs.
func TestSettleCostIndependentOfStreamLength(t *testing.T) {
	const procs = 8
	small, _ := ringSettleCosts(t, procs, 256, nil)
	large, _ := ringSettleCosts(t, procs, 2048, nil)
	smallMed, smallMean, smallMin, smallMax := costStats(small)
	largeMed, largeMean, largeMin, largeMax := costStats(large)
	t.Logf("allocs per settling Check: median %d / %d, mean %.2f / %.2f; cut builds per settlement %d..%d / %d..%d",
		smallMed, largeMed, smallMean, largeMean, smallMin, smallMax, largeMin, largeMax)
	if smallMed != largeMed {
		t.Errorf("median allocs per settling Check: %d at 256 rounds, %d at 2,048; want equal", smallMed, largeMed)
	}
	if largeMean > smallMean+1 {
		t.Errorf("mean allocs per settling Check: %.2f at 256 rounds, %.2f at 2,048; want within one", smallMean, largeMean)
	}
	if smallMin != largeMin || smallMax != largeMax {
		t.Errorf("cut builds per settlement: %d..%d at 256 rounds, %d..%d at 2,048; want equal", smallMin, smallMax, largeMin, largeMax)
	}

	// Each ring round is one interval of perRound events, and the store keeps
	// an interval only while none of its events is compacted. The retained
	// region is at most the MaxEvents window plus one appraisal cadence of
	// slack on either side, so it spans at most (MaxEvents+2·Every)/perRound
	// whole rounds plus the two rounds straddling its ends.
	policy := RetentionPolicy{MaxEvents: 256, Every: 64}
	perRound := sim.MustGenerate(sim.Config{Pattern: sim.Ring, Procs: procs, Rounds: 1, Seed: 1}).Exec.NumEvents()
	bound := (policy.MaxEvents+2*policy.Every)/perRound + 2
	for _, rounds := range []int{256, 2048} {
		_, entries := ringSettleCosts(t, procs, rounds, &policy)
		t.Logf("%d rounds under %+v: cut store peaked at %d entries (bound %d)", rounds, policy, entries, bound)
		if entries > bound {
			t.Errorf("%d rounds: cut store peaked at %d entries; want <= %d (the retention window, not the stream length)", rounds, entries, bound)
		}
	}
}
