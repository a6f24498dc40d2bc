package online

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"causet/internal/hierarchy"
	"causet/internal/monitor"
	"causet/internal/obs"
	"causet/internal/poset"
	"causet/internal/sim"
	"causet/internal/vclock"
)

// phaseConditions builds a condition set over consecutive phase pairs of a
// generated workload, mixing relation atoms, negation, disjunction, and the
// conditional form so the differential runs exercise the full DSL surface.
func phaseConditions(phases []sim.Phase) [][2]string {
	var conds [][2]string
	for i := 0; i+1 < len(phases); i++ {
		a, b := phases[i].Name, phases[i+1].Name
		conds = append(conds,
			[2]string{fmt.Sprintf("fwd-%d", i), fmt.Sprintf("R1(%s, %s)", a, b)},
			[2]string{fmt.Sprintf("bwd-%d", i), fmt.Sprintf("R1(%s, %s)", b, a)},
			[2]string{fmt.Sprintf("mix-%d", i), fmt.Sprintf("R2(%s, %s) || !R3(%s, %s)", a, b, a, b)},
			[2]string{fmt.Sprintf("imp-%d", i), fmt.Sprintf("R1(%s, %s) -> R2'(%s, %s)", a, b, a, b)},
		)
	}
	return conds
}

// agreementRun is one workload driven through the online monitor next to
// its offline oracle. The oracle is independent code: whenever a condition
// becomes evaluable, a cold Builder.Build of the stream's prefix is handed to
// a fresh offline monitor.Monitor (full clock rebuild, no views, no carried
// caches), which evaluates the condition there.
type agreementRun struct {
	conds [][2]string
	// trace is the rendered online Check listing after every appended event.
	trace []string
	// offline holds each condition's offline verdict, evaluated at the
	// prefix ending at event readyAt (the completion of its last interval).
	offline map[string]monitor.Result
	readyAt map[string]int
	// clocks renders every real event's online forward and reverse
	// timestamps at the final snapshot; wantClocks the same from vclock.New.
	clocks, wantClocks string
	// strongest is the online StrongestBetween answer for every consecutive
	// phase pair at the end of the run; wantStrongest the offline
	// HeldTable1 + hierarchy.Strongest answer over the final cold build.
	strongest, wantStrongest []string
}

// runAgreement replays a generated workload event by event onto a fresh
// stream + online monitor, observing every event into its phase interval,
// completing each phase as its last event arrives, and calling Check after
// every event; at each completion it also settles the newly evaluable
// conditions on the offline oracle.
func runAgreement(t testing.TB, res *sim.Result, conds [][2]string) *agreementRun {
	t.Helper()
	s := NewStream(res.Exec.NumProcs())
	m := NewMonitor(s)
	r := &agreementRun{
		conds:   conds,
		offline: make(map[string]monitor.Result),
		readyAt: make(map[string]int),
	}
	refs := make([][]string, len(conds))
	for i, c := range conds {
		if err := m.AddCondition(c[0], c[1]); err != nil {
			t.Fatalf("AddCondition(%q): %v", c[0], err)
		}
		refs[i] = monitor.Referenced(monitor.MustParse(c[1]))
	}
	phaseOf := make(map[poset.EventID]int)
	remaining := make([]int, len(res.Phases))
	for i, ph := range res.Phases {
		remaining[i] = len(ph.Events)
		for _, e := range ph.Events {
			phaseOf[e] = i
		}
	}
	complete := make(map[string][]poset.EventID)
	coldBuild := func() *poset.Execution {
		s.mu.Lock()
		defer s.mu.Unlock()
		ex, err := s.b.Build()
		if err != nil {
			t.Fatalf("cold build: %v", err)
		}
		return ex
	}
	// settleOffline evaluates, on a cold build of the current prefix, every
	// condition whose intervals are now all complete for the first time.
	settleOffline := func(event int) {
		var off *monitor.Monitor
		for i, c := range conds {
			if _, done := r.readyAt[c[0]]; done {
				continue
			}
			ready := true
			for _, ref := range refs[i] {
				if _, ok := complete[ref]; !ok {
					ready = false
				}
			}
			if !ready {
				continue
			}
			if off == nil {
				off = monitor.New(coldBuild())
			}
			for _, ref := range refs[i] {
				if _, ok := off.Interval(ref); !ok {
					if err := off.Define(ref, complete[ref]); err != nil {
						t.Fatalf("offline Define(%q): %v", ref, err)
					}
				}
			}
			if err := off.AddCondition(c[0], c[1]); err != nil {
				t.Fatalf("offline AddCondition(%q): %v", c[0], err)
			}
			r.readyAt[c[0]] = event
		}
		if off == nil {
			return
		}
		for _, v := range off.Check() {
			r.offline[v.Name] = v
		}
	}
	event := 0
	if _, err := ReplayStepsOn(s, res.Exec, func(_ *Stream, e poset.EventID) error {
		if pi, ok := phaseOf[e]; ok {
			name := res.Phases[pi].Name
			if err := m.Observe(name, e); err != nil {
				return err
			}
			remaining[pi]--
			if remaining[pi] == 0 {
				if err := m.Complete(name); err != nil {
					return err
				}
				complete[name] = res.Phases[pi].Events
				settleOffline(event)
			}
		}
		r.trace = append(r.trace, renderResults(m.Check()))
		event++
		return nil
	}); err != nil {
		t.Fatalf("replay: %v", err)
	}

	snap := s.Snapshot()
	cold := vclock.New(res.Exec)
	var got, want strings.Builder
	for _, e := range res.Exec.RealEvents() {
		fmt.Fprintf(&got, "%v T=%v TR=%v\n", e, snap.Analysis.Clocks().T(e), snap.Analysis.Clocks().TR(e))
		fmt.Fprintf(&want, "%v T=%v TR=%v\n", e, cold.T(e), cold.TR(e))
	}
	r.clocks, r.wantClocks = got.String(), want.String()

	off := monitor.New(coldBuild())
	for name, evs := range complete {
		if err := off.Define(name, evs); err != nil {
			t.Fatalf("offline Define(%q): %v", name, err)
		}
	}
	for i := 0; i+1 < len(res.Phases); i++ {
		x, y := res.Phases[i].Name, res.Phases[i+1].Name
		rels, err := m.StrongestBetween(x, y)
		r.strongest = append(r.strongest, fmt.Sprintf("%v/%v", rels, err))
		held, err := off.HeldTable1(x, y)
		if err == nil {
			rels = hierarchy.Strongest(held)
		} else {
			rels = nil
		}
		r.wantStrongest = append(r.wantStrongest, fmt.Sprintf("%v/%v", rels, err))
	}
	return r
}

// wantTrace renders the Check listing the oracle predicts after every
// event: a condition reports its offline verdict from the event it became
// evaluable on, and Pending before that.
func (r *agreementRun) wantTrace() []string {
	out := make([]string, len(r.trace))
	rs := make([]monitor.Result, len(r.conds))
	for i := range out {
		for k, c := range r.conds {
			if at, ok := r.readyAt[c[0]]; ok && at <= i {
				rs[k] = r.offline[c[0]]
			} else {
				rs[k] = monitor.Result{Name: c[0], State: monitor.Pending}
			}
		}
		out[i] = renderResults(rs)
	}
	return out
}

// compare reports the first divergence between the online run and its
// offline oracle: per-event verdict listings, final clock tables, and
// StrongestBetween answers must all be byte-identical.
func (r *agreementRun) compare() error {
	want := r.wantTrace()
	for i := range want {
		if r.trace[i] != want[i] {
			return fmt.Errorf("verdicts diverge at event %d:\nonline:  %s\noffline: %s", i, r.trace[i], want[i])
		}
	}
	if r.clocks != r.wantClocks {
		return fmt.Errorf("final clock tables diverge:\nonline:\n%s\nvclock.New:\n%s", r.clocks, r.wantClocks)
	}
	for i := range r.wantStrongest {
		if r.strongest[i] != r.wantStrongest[i] {
			return fmt.Errorf("StrongestBetween(%d) diverges: online %s, offline %s", i, r.strongest[i], r.wantStrongest[i])
		}
	}
	return nil
}

// diffRuns drives one workload through the online monitor and its offline
// oracle, fails on any divergence, and returns the run for further checks.
func diffRuns(t testing.TB, res *sim.Result, label string) *agreementRun {
	t.Helper()
	if len(res.Phases) < 2 {
		t.Fatalf("%s: workload has %d phases; need at least 2", label, len(res.Phases))
	}
	r := runAgreement(t, res, phaseConditions(res.Phases))
	if err := r.compare(); err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	return r
}

// TestIncrementalSnapshotAgreement is the differential anchor of the online
// hot path: across every structured workload pattern and a spread of seeds,
// the online monitor must produce the per-event verdict listings, clock
// tables, and StrongestBetween answers of the offline oracle. The suite
// fails unless it sees both a Holds and a Violated settlement, so a
// condition set that only ever agrees on one verdict cannot pass vacuously.
func TestIncrementalSnapshotAgreement(t *testing.T) {
	seen := make(map[monitor.State]int)
	for _, pat := range sim.Patterns() {
		if pat == sim.Random {
			continue // no phases; covered by the faultsim chaos suite
		}
		for seed := int64(0); seed < 4; seed++ {
			res, err := sim.Generate(sim.Config{Pattern: pat, Procs: 4, Rounds: 5, Seed: seed})
			if err != nil {
				t.Fatalf("%v/seed=%d: %v", pat, seed, err)
			}
			if len(res.Phases) < 2 {
				continue
			}
			r := diffRuns(t, res, fmt.Sprintf("%v/seed=%d", pat, seed))
			for _, v := range r.offline {
				seen[v.State]++
			}
		}
	}
	if seen[monitor.Holds] == 0 || seen[monitor.Violated] == 0 {
		t.Errorf("settlements by state %v: need at least one holds and one violated, or the differential is vacuous", seen)
	}
}

// TestAgreementComparatorCatchesFlippedVerdict calibrates the differential:
// with one expected offline verdict flipped, the comparator must report a
// divergence. A comparator that cannot see a flipped verdict would let
// TestIncrementalSnapshotAgreement pass whatever the monitor did.
func TestAgreementComparatorCatchesFlippedVerdict(t *testing.T) {
	res := sim.MustGenerate(sim.Config{Pattern: sim.Ring, Procs: 4, Rounds: 4, Seed: 1})
	r := diffRuns(t, res, "ring/seed=1")
	name := r.conds[0][0]
	flipped := r.offline[name]
	switch flipped.State {
	case monitor.Holds:
		flipped.State = monitor.Violated
	case monitor.Violated:
		flipped.State = monitor.Holds
	default:
		t.Fatalf("condition %s settled %v offline; want holds or violated", name, flipped.State)
	}
	r.offline[name] = flipped
	err := r.compare()
	if err == nil {
		t.Fatalf("comparator accepted the flipped verdict of %s", name)
	}
	if !strings.Contains(err.Error(), name+"=") {
		t.Errorf("divergence report does not name %s: %v", name, err)
	}
}

// FuzzIncrementalSnapshotAgreement lets the fuzzer search the workload
// space (pattern × size × seed) for any divergence between the online
// monitor and its offline oracle.
func FuzzIncrementalSnapshotAgreement(f *testing.F) {
	f.Add(int64(1), uint8(1), uint8(4), uint8(3))
	f.Add(int64(7), uint8(5), uint8(3), uint8(2))
	f.Add(int64(42), uint8(7), uint8(5), uint8(4))
	f.Fuzz(func(t *testing.T, seed int64, pat, procs, rounds uint8) {
		pats := sim.Patterns()
		p := pats[int(pat)%len(pats)]
		if p == sim.Random {
			p = sim.Ring
		}
		cfg := sim.Config{
			Pattern: p,
			Procs:   2 + int(procs)%5,
			Rounds:  1 + int(rounds)%5,
			Seed:    seed,
		}
		res, err := sim.Generate(cfg)
		if err != nil || len(res.Phases) < 2 {
			t.Skip()
		}
		diffRuns(t, res, fmt.Sprintf("%v/procs=%d/rounds=%d/seed=%d", p, cfg.Procs, cfg.Rounds, seed))
	})
}

// TestStreamAllocsPerEvent pins the append hot path's allocation budget:
// with arena-carved vector clocks the steady-state cost must stay well
// under one allocation per event (the pre-arena path paid at least one VC
// make per event, plus slice growth).
func TestStreamAllocsPerEvent(t *testing.T) {
	const procs, rounds = 8, 512
	s := NewStream(procs)
	// Warm up so slice-growth reallocations of the early doublings don't
	// dominate the measurement.
	ring := func(n int) {
		for r := 0; r < n; r++ {
			for i := 0; i < procs; i++ {
				send, err := s.Send(i)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := s.Recv((i+1)%procs, send); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	ring(rounds / 4)
	events := rounds * procs * 2
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	ring(rounds)
	runtime.ReadMemStats(&m1)
	perEvent := float64(m1.Mallocs-m0.Mallocs) / float64(events)
	t.Logf("allocs/event = %.3f over %d events", perEvent, events)
	if perEvent > 0.5 {
		t.Errorf("append hot path allocates %.3f objects/event; want <= 0.5", perEvent)
	}
}

// TestSnapshotCounters pins the reuse/rebuild accounting: cached snapshot
// hits count as reuses, constructions as rebuilds (and, for compatibility,
// as online.snapshots).
func TestSnapshotCounters(t *testing.T) {
	reg := obs.New()
	s := NewStream(2)
	s.Instrument(reg, nil)
	if _, err := s.Local(0); err != nil {
		t.Fatal(err)
	}
	s.Snapshot()
	s.Snapshot()
	if _, err := s.Local(1); err != nil {
		t.Fatal(err)
	}
	s.Snapshot()
	rebuilds := reg.Counter("online.snapshot_rebuilds").Value()
	reuses := reg.Counter("online.snapshot_reuses").Value()
	snaps := reg.Counter("online.snapshots").Value()
	if rebuilds != 2 || reuses != 1 || snaps != 2 {
		t.Errorf("got rebuilds=%d reuses=%d snapshots=%d; want 2/1/2", rebuilds, reuses, snaps)
	}
}

// TestMonitorCheckWindow verifies the monitor.check_ns window records one
// sample per Check and per Poll call.
func TestMonitorCheckWindow(t *testing.T) {
	reg := obs.New()
	s := NewStream(2)
	m := NewMonitor(s)
	m.Instrument(reg)
	if err := m.AddCondition("c", "R1(A, B)"); err != nil {
		t.Fatal(err)
	}
	m.Check()
	m.Check()
	m.Poll()
	snap := reg.Snapshot()
	if got := snap.Windows["monitor.check_ns"].Count; got != 3 {
		t.Errorf("monitor.check_ns window count = %d; want 3", got)
	}
}

// TestCacheCarryAcrossEpochs verifies the point of the cut store: an
// interval whose cuts stabilized at one epoch is not rebuilt at the next.
func TestCacheCarryAcrossEpochs(t *testing.T) {
	s := NewStream(3)
	m := NewMonitor(s)
	res := sim.MustGenerate(sim.Config{Pattern: sim.Ring, Procs: 3, Rounds: 4, Seed: 1})
	phaseOf := make(map[poset.EventID]int)
	remaining := make([]int, len(res.Phases))
	for i, ph := range res.Phases {
		remaining[i] = len(ph.Events)
		for _, e := range ph.Events {
			phaseOf[e] = i
		}
	}
	for i := range res.Phases[:len(res.Phases)-1] {
		name := fmt.Sprintf("c%d", i)
		src := fmt.Sprintf("R1(%s, %s)", res.Phases[i].Name, res.Phases[i+1].Name)
		if err := m.AddCondition(name, src); err != nil {
			t.Fatal(err)
		}
	}
	var builds []int64
	if _, err := ReplayStepsOn(s, res.Exec, func(_ *Stream, e poset.EventID) error {
		pi := phaseOf[e]
		if err := m.Observe(res.Phases[pi].Name, e); err != nil {
			return err
		}
		remaining[pi]--
		if remaining[pi] == 0 {
			if err := m.Complete(res.Phases[pi].Name); err != nil {
				return err
			}
			m.Check()
			builds = append(builds, s.Snapshot().Analysis.CutBuilds())
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	// Every settling check defines at most two fresh intervals; with the
	// cut store, the per-epoch build count must not grow with the number
	// of previously settled intervals. Without it, epoch k would rebuild
	// all k+1 intervals it defines, so the last epoch's count would be
	// len(phases), not O(1).
	last := builds[len(builds)-1]
	if last > 4 {
		t.Errorf("final epoch built %d interval cuts; the cut store should bound this by the freshly-referenced intervals (<= 4). build counts per epoch: %v", last, builds)
	}
}
