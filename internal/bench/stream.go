package bench

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"causet/internal/monitor"
	"causet/internal/obs"
	"causet/internal/online"
	"causet/internal/poset"
	"causet/internal/sim"
)

// StreamConfig is one point of the E14 sweep: a ring workload of Rounds
// rounds over Procs processes, with one R1 condition per consecutive round
// pair, driven through the online monitor loop (append + Observe/Complete +
// Check after every event).
type StreamConfig struct {
	Procs  int
	Rounds int
}

// DefaultStreamConfigs is the E14 sweep grid. Rounds is the axis that
// separates the paths: every round completion settles a condition, and the
// offline-rebuild baseline pays a cold Build plus a full O(|E|·|P|) clock
// rebuild for each one, so its total cost grows quadratically in rounds
// while the incremental monitor stays linear.
func DefaultStreamConfigs() []StreamConfig {
	return []StreamConfig{{Procs: 8, Rounds: 4}, {Procs: 8, Rounds: 16}, {Procs: 8, Rounds: 64}}
}

// StreamRow is one measured point of experiment E14: the steady-state online
// monitor loop versus the offline-rebuild baseline (runOfflineRebuild). The
// Leg* fields (JSON leg_*) hold the baseline. Per-event costs cover the
// whole loop (append + interval bookkeeping + evaluation); the Check fields
// isolate the amortized evaluation cost.
type StreamRow struct {
	Procs     int
	Rounds    int
	Events    int     // appended events per run
	IncNs     float64 // ns per event, online monitor
	LegNs     float64 // ns per event, offline-rebuild baseline
	IncEvSec  float64 // events per second, online monitor
	LegEvSec  float64 // events per second, offline-rebuild baseline
	IncAllocs float64 // heap allocations per event, online monitor
	LegAllocs float64 // heap allocations per event, offline-rebuild baseline
	IncCheck  float64 // amortized Check ns per event, online monitor
	LegCheck  float64 // amortized evaluation ns per event, offline-rebuild baseline
	Speedup   float64 // LegNs / IncNs
	Agree     bool    // identical final verdict vectors, none pending
}

// streamWorkload prepares the generated execution and the per-round
// condition set of one sweep point.
func streamWorkload(cfg StreamConfig, seed int64) (*sim.Result, [][2]string) {
	res := sim.MustGenerate(sim.Config{Pattern: sim.Ring, Procs: cfg.Procs, Rounds: cfg.Rounds, Seed: seed})
	var conds [][2]string
	for i := 0; i+1 < len(res.Phases); i++ {
		conds = append(conds, [2]string{
			fmt.Sprintf("ordered-%d", i),
			fmt.Sprintf("R1(%s, %s)", res.Phases[i].Name, res.Phases[i+1].Name),
		})
	}
	return res, conds
}

// streamRun is one timed replay of a sweep point: its wall-clock time, the
// time spent evaluating conditions, its heap allocations, and the rendered
// final verdicts.
type streamRun struct {
	elapsed  time.Duration
	checkNs  int64
	allocs   uint64
	verdicts string
}

// phaseIndex maps every phase event to its phase and counts each phase's
// events, so a replay can complete a phase as its last event arrives.
func phaseIndex(res *sim.Result) (phaseOf map[poset.EventID]int, remaining []int) {
	phaseOf = make(map[poset.EventID]int, res.Exec.NumEvents())
	remaining = make([]int, len(res.Phases))
	for i, ph := range res.Phases {
		remaining[i] = len(ph.Events)
		for _, e := range ph.Events {
			phaseOf[e] = i
		}
	}
	return phaseOf, remaining
}

// renderVerdicts flattens a verdict listing into one comparable line.
func renderVerdicts(rs []monitor.Result) string {
	var v strings.Builder
	for _, r := range rs {
		fmt.Fprintf(&v, "%s=%s;", r.Name, r.State)
	}
	return v.String()
}

// runStream drives one full monitored replay through the online monitor:
// append, Observe/Complete, and Check after every event.
func runStream(res *sim.Result, conds [][2]string, reg *obs.Registry, tr *obs.Tracer) (streamRun, error) {
	var run streamRun
	s := online.NewStream(res.Exec.NumProcs())
	s.Instrument(reg, tr)
	m := online.NewMonitor(s)
	m.Instrument(reg)
	for _, c := range conds {
		if err := m.AddCondition(c[0], c[1]); err != nil {
			return run, err
		}
	}
	phaseOf, remaining := phaseIndex(res)
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	start := time.Now()
	_, err := online.ReplayStepsOn(s, res.Exec, func(_ *online.Stream, e poset.EventID) error {
		pi := phaseOf[e]
		if err := m.Observe(res.Phases[pi].Name, e); err != nil {
			return err
		}
		remaining[pi]--
		if remaining[pi] == 0 {
			if err := m.Complete(res.Phases[pi].Name); err != nil {
				return err
			}
		}
		c0 := time.Now()
		m.Check()
		run.checkNs += time.Since(c0).Nanoseconds()
		return nil
	})
	run.elapsed = time.Since(start)
	runtime.ReadMemStats(&m1)
	if err != nil {
		return run, err
	}
	run.allocs = m1.Mallocs - m0.Mallocs
	run.verdicts = renderVerdicts(m.Check())
	return run, nil
}

// runOfflineRebuild is the E14 baseline: the same replay with no online
// monitor. A poset.Builder mirrors the prefix, and every event that
// completes a phase re-evaluates offline — a cold Build of the prefix, a
// fresh monitor.New over it (full clock tables), Define of the intervals
// the newly ready conditions reference, and Check. This is the cost model
// of an online loop without snapshot views, a cut store, or a
// readiness index.
func runOfflineRebuild(res *sim.Result, conds [][2]string) (streamRun, error) {
	var run streamRun
	compiled := make([]*monitor.Condition, len(conds))
	for i, c := range conds {
		expr, err := monitor.Parse(c[1])
		if err != nil {
			return run, err
		}
		compiled[i] = &monitor.Condition{Name: c[0], Src: c[1], Expr: expr}
	}
	sendFor := make(map[poset.EventID]poset.EventID, len(res.Exec.Messages()))
	for _, msg := range res.Exec.Messages() {
		sendFor[msg.To] = msg.From
	}
	phaseOf, remaining := phaseIndex(res)
	complete := make(map[string][]poset.EventID, len(res.Phases))
	settled := make(map[string]monitor.Result, len(conds))
	b := poset.NewBuilder(res.Exec.NumProcs())

	// settle evaluates, on a cold build of the prefix, every unsettled
	// condition whose intervals are all complete.
	settle := func() error {
		var off *monitor.Monitor
		for _, c := range compiled {
			if _, done := settled[c.Name]; done {
				continue
			}
			refs := monitor.Referenced(c.Expr)
			ready := true
			for _, ref := range refs {
				if _, ok := complete[ref]; !ok {
					ready = false
					break
				}
			}
			if !ready {
				continue
			}
			if off == nil {
				ex, err := b.Build()
				if err != nil {
					return err
				}
				off = monitor.New(ex)
			}
			for _, ref := range refs {
				if _, ok := off.Interval(ref); !ok {
					if err := off.Define(ref, complete[ref]); err != nil {
						return err
					}
				}
			}
			if err := off.AddConditionParsed(c); err != nil {
				return err
			}
		}
		if off != nil {
			for _, r := range off.Check() {
				settled[r.Name] = r
			}
		}
		return nil
	}

	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	start := time.Now()
	for _, e := range res.Exec.LinearExtension() {
		id := b.Append(e.Proc)
		if from, ok := sendFor[e]; ok {
			if err := b.Message(from, id); err != nil {
				return run, err
			}
		}
		pi := phaseOf[e]
		remaining[pi]--
		if remaining[pi] > 0 {
			continue
		}
		complete[res.Phases[pi].Name] = res.Phases[pi].Events
		c0 := time.Now()
		if err := settle(); err != nil {
			return run, err
		}
		run.checkNs += time.Since(c0).Nanoseconds()
	}
	run.elapsed = time.Since(start)
	runtime.ReadMemStats(&m1)
	run.allocs = m1.Mallocs - m0.Mallocs
	final := make([]monitor.Result, len(compiled))
	for i, c := range compiled {
		if r, done := settled[c.Name]; done {
			final[i] = r
		} else {
			final[i] = monitor.Result{Name: c.Name, State: monitor.Pending}
		}
	}
	run.verdicts = renderVerdicts(final)
	return run, nil
}

// StreamSweep runs E14: for each config it replays the same ring workload
// through the online monitor loop and through the offline-rebuild baseline,
// reps times each (keeping the fastest run, averaging allocations), and
// cross-checks that both settle every condition with identical verdicts.
func StreamSweep(cfgs []StreamConfig, reps int, seed int64) ([]StreamRow, error) {
	return StreamSweepObs(cfgs, reps, seed, nil, nil)
}

// StreamSweepObs is StreamSweep with the online streams and monitors
// instrumented against reg and tr (either may be nil), so the online.* and
// monitor.* instruments accumulate across the sweep and land in benchtab's
// JSON report.
func StreamSweepObs(cfgs []StreamConfig, reps int, seed int64, reg *obs.Registry, tr *obs.Tracer) ([]StreamRow, error) {
	if reps < 1 {
		reps = 1
	}
	rows := make([]StreamRow, 0, len(cfgs))
	for _, cfg := range cfgs {
		res, conds := streamWorkload(cfg, seed)
		events := res.Exec.NumEvents()
		measure := func(once func() (streamRun, error)) (ns, evSec, allocsEv, checkEv float64, verdicts string, err error) {
			var best streamRun
			var allocSum int64
			for r := 0; r < reps; r++ {
				run, err := once()
				if err != nil {
					return 0, 0, 0, 0, "", err
				}
				if r == 0 || run.elapsed < best.elapsed {
					best.elapsed = run.elapsed
				}
				if r == 0 || run.checkNs < best.checkNs {
					best.checkNs = run.checkNs
				}
				allocSum += int64(run.allocs)
				verdicts = run.verdicts
			}
			ns = float64(best.elapsed.Nanoseconds()) / float64(events)
			if best.elapsed > 0 {
				evSec = float64(events) / best.elapsed.Seconds()
			}
			allocsEv = float64(allocSum) / float64(reps) / float64(events)
			checkEv = float64(best.checkNs) / float64(events)
			return ns, evSec, allocsEv, checkEv, verdicts, nil
		}
		row := StreamRow{Procs: cfg.Procs, Rounds: cfg.Rounds, Events: events}
		var incV, offV string
		var err error
		if row.IncNs, row.IncEvSec, row.IncAllocs, row.IncCheck, incV, err = measure(func() (streamRun, error) {
			return runStream(res, conds, reg, tr)
		}); err != nil {
			return nil, fmt.Errorf("bench: stream sweep %dx%d online: %w", cfg.Procs, cfg.Rounds, err)
		}
		if row.LegNs, row.LegEvSec, row.LegAllocs, row.LegCheck, offV, err = measure(func() (streamRun, error) {
			return runOfflineRebuild(res, conds)
		}); err != nil {
			return nil, fmt.Errorf("bench: stream sweep %dx%d offline rebuild: %w", cfg.Procs, cfg.Rounds, err)
		}
		row.Agree = incV == offV && !strings.Contains(incV, monitor.Pending.String())
		if row.IncNs > 0 {
			row.Speedup = row.LegNs / row.IncNs
		}
		rows = append(rows, row)
	}
	return rows, nil
}
