package online

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"causet/internal/core"
	"causet/internal/interval"
	"causet/internal/monitor"
	"causet/internal/poset"
	"causet/internal/sim"
)

// storeJob is one consecutive phase pair, as intervals of the snapshot
// taken when the later phase completed.
type storeJob struct {
	snap *Snapshot
	pair int
	x, y *interval.Interval
}

// TestCutStoreConcurrentOldSnapshots runs the cut store's readers and
// writers at once (run under -race in CI). Reader goroutines keep old
// snapshots and query Cuts, ProxyCuts, EvalTable1 and EvalProfile on them,
// while the test goroutine appends, settles conditions, and compacts under
// a tight retention window — so old epochs read entries that newer epochs
// add, and entries that compaction sweeps away. Every reader verdict must equal the
// offline analysis of the cold Build, and so must the monitor's final
// listing.
func TestCutStoreConcurrentOldSnapshots(t *testing.T) {
	const procs, rounds, readers, reps = 4, 40, 3, 3
	res := sim.MustGenerate(sim.Config{Pattern: sim.Gossip, Procs: procs, Rounds: rounds, Seed: 3})
	ph := res.Phases

	offline := core.NewAnalysis(res.Exec)
	wantTable := make([]uint8, len(ph)-1)
	wantProfile := make([]uint32, len(ph)-1)
	for i := range wantTable {
		x := interval.MustNew(res.Exec, ph[i].Events)
		y := interval.MustNew(res.Exec, ph[i+1].Events)
		wantTable[i], _ = offline.EvalTable1(x, y)
		wantProfile[i], _ = offline.EvalProfile(x, y)
	}

	s := NewStream(procs)
	m := NewMonitor(s)
	if err := m.SetRetention(RetentionPolicy{MaxEvents: 24, Every: 8}); err != nil {
		t.Fatal(err)
	}
	cold := monitor.New(res.Exec)
	for _, p := range ph {
		if err := cold.Define(p.Name, p.Events); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i+1 < len(ph); i++ {
		name, src := fmt.Sprintf("c-%d", i), fmt.Sprintf("R2(%s, %s) && !R1(%s, %s)", ph[i].Name, ph[i+1].Name, ph[i+1].Name, ph[i].Name)
		mustAdd(t, m, name, src)
		if err := cold.AddCondition(name, src); err != nil {
			t.Fatal(err)
		}
	}

	var (
		mu   sync.Mutex
		seen []storeJob // every job so far, for readers to revisit
	)
	check := func(j storeJob) error {
		a := j.snap.Analysis
		a.Cuts(j.x)
		a.ProxyCuts(j.y, interval.ProxyU)
		if got, _ := a.EvalTable1(j.x, j.y); got != wantTable[j.pair] {
			return fmt.Errorf("pair %d: EvalTable1 %08b, offline %08b", j.pair, got, wantTable[j.pair])
		}
		if got, _ := a.EvalProfile(j.x, j.y); got != wantProfile[j.pair] {
			return fmt.Errorf("pair %d: EvalProfile %032b, offline %032b", j.pair, got, wantProfile[j.pair])
		}
		return nil
	}
	jobs := make(chan storeJob, 4)
	errs := make(chan error, readers)
	var wg sync.WaitGroup
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(g)))
			for j := range jobs {
				for k := 0; k < reps; k++ {
					mu.Lock()
					old := seen[r.Intn(len(seen))]
					mu.Unlock()
					for _, job := range [2]storeJob{j, old} {
						if err := check(job); err != nil {
							errs <- err
							for range jobs {
								// Keep the sender unblocked.
							}
							return
						}
					}
				}
			}
			errs <- nil
		}(g)
	}

	phaseOf := make(map[poset.EventID]int)
	remaining := make([]int, len(ph))
	for i, p := range ph {
		remaining[i] = len(p.Events)
		for _, e := range p.Events {
			phaseOf[e] = i
		}
	}
	_, err := ReplayStepsPinned(s, res.Exec, func(s *Stream, e poset.EventID) error {
		pi := phaseOf[e]
		if err := m.Observe(ph[pi].Name, e); err != nil {
			return err
		}
		if remaining[pi]--; remaining[pi] == 0 {
			if err := m.Complete(ph[pi].Name); err != nil {
				return err
			}
		}
		m.Check()
		if remaining[pi] != 0 || pi == 0 {
			return nil
		}
		// The pair just settled on this very snapshot, so neither phase is
		// compacted yet.
		snap := s.Snapshot()
		j := storeJob{snap: snap, pair: pi - 1}
		var err error
		if j.x, err = interval.New(snap.Exec, ph[pi-1].Events); err != nil {
			return err
		}
		if j.y, err = interval.New(snap.Exec, ph[pi].Events); err != nil {
			return err
		}
		mu.Lock()
		seen = append(seen, j)
		mu.Unlock()
		jobs <- j
		return nil
	})
	close(jobs)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	for g := 0; g < readers; g++ {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}

	if base := s.CompactedThrough(); base[0] == 0 && base[1] == 0 && base[2] == 0 && base[3] == 0 {
		t.Error("the stream never compacted; the test needs compaction to race the readers")
	}
	want := cold.Check()
	got := m.Check()
	if len(got) != len(want) {
		t.Fatalf("online listing has %d conditions, offline %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Name != want[i].Name || got[i].State != want[i].State {
			t.Errorf("condition %d: online %s=%v, offline %s=%v", i, got[i].Name, got[i].State, want[i].Name, want[i].State)
		}
	}
}
