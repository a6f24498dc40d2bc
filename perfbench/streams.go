package main

import (
	"fmt"
	"runtime"
	"time"

	"causet/internal/monitor"
	"causet/internal/obs"
)

// passOpts selects what one pass over a stream workload records. The timed
// passes fill the histograms only; the other fields serve the untimed
// memory pass and the traced run.
type passOpts struct {
	step, detect *hist         // per-step and per-verdict latency
	heap         *heapSampler  // forced-GC heap samples (time excluded)
	spans        *spans        // spans around each library call
	reg          *obs.Registry // stream-check: attach a registry for its counters
	track        bool          // follow RetainedEvents after each call
}

// passStats is what one pass measured.
type passStats struct {
	setupNs   float64 // construction before the first event
	loopNs    int64   // ingest loop wall time, heap sampling excluded
	events    int
	settled   int
	calls     int64 // library calls made
	entries   int64 // Check listing entries returned
	tenths    [10]int64
	tenthsN   [10]int64
	verdicts  []monitor.State
	retained  int // max Stream.RetainedEvents (track)
	lastRet   int
	compacts  int   // calls during which RetainedEvents fell (track)
	compactNs int64 // their summed span time
	counters  map[string]int64
	series    int
}

// noteStep files one step's duration into the pass tenths.
func (st *passStats) noteStep(i, n int, d int64) {
	k := i * 10 / n
	st.tenths[k] += d
	st.tenthsN[k]++
}

// noteRetained follows Stream.RetainedEvents after a call that took dur.
func (st *passStats) noteRetained(cur int, dur int64) {
	if cur < st.lastRet {
		st.compacts++
		st.compactNs += dur
	}
	st.lastRet = cur
	if cur > st.retained {
		st.retained = cur
	}
}

// costGrowth is the mean step time of the last tenth over the first.
func (st *passStats) costGrowth() float64 {
	if st.tenthsN[0] == 0 || st.tenthsN[9] == 0 || st.tenths[0] == 0 {
		return 0
	}
	return (float64(st.tenths[9]) / float64(st.tenthsN[9])) / (float64(st.tenths[0]) / float64(st.tenthsN[0]))
}

// registryCounts reads the counters the per-layer metrics need.
func registryCounts(reg *obs.Registry) (map[string]int64, int) {
	snap := reg.Snapshot()
	series := len(snap.Counters) + len(snap.Gauges) + len(snap.Histograms) + len(snap.Windows) + len(snap.Infos)
	return snap.Counters, series
}

// delivery tracks, per condition, when it became evaluable and which
// verdict reached the driver.
type delivery struct {
	missing  []int8  // referenced intervals not yet complete
	evalAt   []int64 // now() when the condition became evaluable
	waiting  []int32 // evaluable, verdict not yet delivered (Check path)
	verdicts []monitor.State
	settled  int
}

func newDelivery(n int, missing int8) *delivery {
	d := &delivery{
		missing: make([]int8, n), evalAt: make([]int64, n),
		waiting: make([]int32, 0, 16), verdicts: make([]monitor.State, n),
	}
	for i := range d.missing {
		d.missing[i] = missing
	}
	return d
}

// unblock notes that one interval of condition c completed at t.
func (d *delivery) unblock(c int32, t int64) {
	d.missing[c]--
	if d.missing[c] == 0 {
		d.evalAt[c] = t
		d.waiting = append(d.waiting, c)
	}
}

// settle records condition c's verdict delivered at t.
func (d *delivery) settle(c int, s monitor.State, t int64, h *hist) {
	if h != nil && d.evalAt[c] > 0 {
		h.add(t - d.evalAt[c])
	}
	d.verdicts[c] = s
	d.settled++
}

// fromListing delivers the waiting conditions whose entry in a Check
// listing (registration order) is no longer pending.
func (d *delivery) fromListing(res []monitor.Result, t int64, h *hist) int {
	n := 0
	kept := d.waiting[:0]
	for _, c := range d.waiting {
		if int(c) < len(res) && res[c].State != monitor.Pending {
			d.settle(int(c), res[c].State, t, h)
			n++
		} else {
			kept = append(kept, c)
		}
	}
	d.waiting = kept
	return n
}

// mismatches counts verdicts that differ from the oracle's, pending ones
// included.
func mismatches(got, want []monitor.State) int {
	n := 0
	for i := range want {
		if i >= len(got) || got[i] != want[i] {
			n++
		}
	}
	return n + max(len(got)-len(want), 0)
}

// heapSampler forces a GC every `every` events and records the live heap
// above base; the time it takes is excluded from the loop time.
type heapSampler struct {
	every    int
	base     uint64
	peak     uint64
	xs, ys   []float64
	pausedNs int64
}

func newHeapSampler(events int) *heapSampler {
	h := &heapSampler{every: max(events/64, 1), xs: make([]float64, 0, 80), ys: make([]float64, 0, 80)}
	h.base = liveHeap()
	return h
}

func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// maybe samples after event i (0-based) when it is due.
func (h *heapSampler) maybe(i int) {
	if h == nil || (i+1)%h.every != 0 {
		return
	}
	h.sample(float64(i + 1))
}

func (h *heapSampler) sample(x float64) {
	t := now()
	live := liveHeap()
	above := uint64(0)
	if live > h.base {
		above = live - h.base
	}
	h.peak = max(h.peak, above)
	h.xs = append(h.xs, x)
	h.ys = append(h.ys, float64(above))
	h.pausedNs += now() - t
}

// slopeSecondHalf is the least-squares slope (bytes per event) of the
// samples taken over the second half of the stream.
func (h *heapSampler) slopeSecondHalf(events int) float64 {
	var n, sx, sy, sxx, sxy float64
	for i, x := range h.xs {
		if x < float64(events)/2 {
			continue
		}
		y := h.ys[i]
		n++
		sx += x
		sy += y
		sxx += x * x
		sxy += x * y
	}
	if n < 2 || n*sxx-sx*sx == 0 {
		return 0
	}
	return (n*sxy - sx*sy) / (n*sxx - sx*sx)
}

// streamPasser is one stream workload: pass drives the whole generated
// input through a fresh stream and monitor.
type streamPasser interface {
	pass(o passOpts) (passStats, error)
	oracle() []monitor.State
	numEvents() int
}

// runStream runs a stream workload in the mode cfg asks for.
func runStream(w streamPasser, cfg runConfig) (*result, error) {
	res := &result{metrics: map[string]float64{}}
	check := func(st passStats) {
		res.attempted += st.calls + int64(len(w.oracle()))
		mm := int64(mismatches(st.verdicts, w.oracle()))
		res.mismatches += mm
		res.failed += mm
	}
	deadline := time.Now().Add(cfg.seconds)

	// Untimed first pass: warms caches and lazy set-up, samples the heap.
	heap := newHeapSampler(w.numEvents())
	memOpts := passOpts{heap: heap, track: cfg.trace}
	if cfg.trace {
		memOpts.reg = obs.New()
	}
	mem, err := w.pass(memOpts)
	if err != nil {
		return nil, err
	}
	check(mem)

	if !cfg.trace {
		var step, detect hist
		var stepQ, detectQ passQuantiles
		var setup, evRate, pairRate []float64
		for p := 0; p < cfg.minPasses || time.Now().Before(deadline); p++ {
			st, err := w.pass(passOpts{step: &step, detect: &detect})
			if err != nil {
				return nil, err
			}
			check(st)
			stepQ.take(&step)
			detectQ.take(&detect)
			setup = append(setup, st.setupNs/1e9)
			secs := float64(st.loopNs) / 1e9
			evRate = append(evRate, float64(st.events)/secs)
			pairRate = append(pairRate, float64(st.settled)/secs)
		}
		m := res.metrics
		m["setup_s"] = median(setup)
		m["events_per_s"] = median(evRate)
		m["pairs_per_s"] = median(pairRate)
		stepQ.put(res, "event")
		detectQ.put(res, "detect")
		m["peak_heap_mib"] = float64(heap.peak) / (1 << 20)
		return res, nil
	}

	// Traced run: untraced and traced passes alternate; the untraced ones
	// give the allocation counts and the reference time for the overhead.
	sp := newSpans()
	var plain, traced, growth []float64
	var allocs, bytes, gcs, events float64
	var tracedLoop, compactNs int64
	var compacts int
	for p := 0; p < 2*cfg.minPasses || time.Now().Before(deadline); p++ {
		if p%2 == 0 {
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			st, err := w.pass(passOpts{})
			runtime.ReadMemStats(&m1)
			if err != nil {
				return nil, err
			}
			check(st)
			plain = append(plain, float64(st.loopNs))
			growth = append(growth, st.costGrowth())
			allocs += float64(m1.Mallocs - m0.Mallocs)
			bytes += float64(m1.TotalAlloc - m0.TotalAlloc)
			gcs += float64(m1.NumGC - m0.NumGC)
			events += float64(st.events)
			continue
		}
		st, err := w.pass(passOpts{spans: sp, track: true})
		if err != nil {
			return nil, err
		}
		check(st)
		traced = append(traced, float64(st.loopNs))
		tracedLoop += st.loopNs
		compacts += st.compacts
		compactNs += st.compactNs
	}
	m := res.metrics
	for _, l := range []struct {
		metric string
		span   int
	}{
		{"online.append_ns", spAppend}, {"online.observe_ns", spObserve}, {"online.complete_ns", spComplete},
		{"online.add_condition_ns", spAddCondition}, {"online.check_idle_ns", spCheckIdle}, {"online.check_settle_ns", spCheckSettle},
	} {
		m[l.metric] = sp.meanNs(l.span)
	}
	m["spans.unattributed_share"] = 1 - float64(sp.inStep)/float64(tracedLoop)
	m["spans.overhead_share"] = median(traced)/median(plain) - 1

	n := float64(mem.events)
	settled := float64(max(mem.settled, 1))
	m["online.listing_entries_per_event"] = float64(mem.entries) / n
	m["online.snapshots_per_settlement"] = float64(mem.counters["online.snapshots"]) / settled
	m["core.cut_builds_per_settlement"] = float64(mem.counters["core.cut_builds"]) / settled
	m["core.fast_comparisons_per_settlement"] = float64(mem.counters["core.fast.comparisons"]) / settled
	m["obs.series"] = float64(mem.series)
	m["online.retained_events_max"] = float64(mem.retained)
	m["online.compactions"] = float64(mem.compacts)
	m["online.heap_growth_b_per_event"] = heap.slopeSecondHalf(mem.events)
	m["online.event_cost_growth"] = median(growth)
	m["online.compact_call_ns"] = meanOr0(compactNs, compacts)
	m["alloc_bytes_per_event"] = bytes / events
	m["allocs_per_event"] = allocs / events
	m["gc_cycles_per_kevent"] = 1000 * gcs / events
	if cfg.spansOut != "" {
		if err := sp.writeChrome(cfg.spansOut, cfg.workload, cfg.seed); err != nil {
			return nil, fmt.Errorf("write spans: %w", err)
		}
	}
	return res, nil
}

func meanOr0(sum int64, n int) float64 {
	if n == 0 {
		return 0
	}
	return float64(sum) / float64(n)
}
