package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"time"

	"causet/internal/batch"
	"causet/internal/core"
	"causet/internal/hierarchy"
	"causet/internal/interval"
	"causet/internal/poset"
	"causet/internal/sim"
	"causet/internal/trace"
)

// offlineSize sizes offline-matrix: a gossip trace of rounds round
// intervals over procs processes, a matrix `workers` wide, and an oracle
// over a sample of intervals.
type offlineSize struct{ procs, rounds, workers, sample int }

var offlineFull = offlineSize{procs: 32, rounds: 320, workers: 2, sample: 24}

type offlineMatrix struct {
	size   offlineSize
	data   []byte // the JSON trace the pipeline decodes
	events int    // real events in the trace
	pairs  int
	// Oracle cells: hierarchy.Summarize with the proxy evaluator over the
	// sampled interval names, indexed like sample.
	sample []string
	want   *hierarchy.PairMatrix
}

func newOfflineMatrix(size offlineSize, seed int64) (*offlineMatrix, error) {
	gen, err := sim.Generate(sim.Config{Pattern: sim.Gossip, Procs: size.procs, Rounds: size.rounds, Seed: seed})
	if err != nil {
		return nil, err
	}
	named := make(map[string][]poset.EventID, len(gen.Phases))
	for _, ph := range gen.Phases {
		named[ph.Name] = ph.Events
	}
	var buf bytes.Buffer
	if err := trace.New(gen.Exec, named).WriteJSON(&buf); err != nil {
		return nil, err
	}
	w := &offlineMatrix{size: size, data: buf.Bytes(), pairs: len(gen.Phases) * (len(gen.Phases) - 1)}
	for p := 0; p < gen.Exec.NumProcs(); p++ {
		w.events += gen.Exec.NumReal(p)
	}

	// The oracle works on the generator's execution, not on the decoded
	// trace, and uses the proxy evaluator instead of the fused kernel.
	rng := rand.New(rand.NewSource(seed))
	idx := rng.Perm(len(gen.Phases))[:min(size.sample, len(gen.Phases))]
	slices.Sort(idx)
	a := core.NewAnalysis(gen.Exec)
	ivs := make([]*interval.Interval, len(idx))
	for k, i := range idx {
		w.sample = append(w.sample, gen.Phases[i].Name)
		if ivs[k], err = interval.New(gen.Exec, gen.Phases[i].Events); err != nil {
			return nil, err
		}
	}
	if w.want, err = hierarchy.Summarize(a, core.NewProxy(a), w.sample, ivs); err != nil {
		return nil, fmt.Errorf("oracle: %w", err)
	}
	return w, nil
}

// offlinePass is what one run of the pipeline measured and produced.
type offlinePass struct {
	setupNs, matrixNs int64
	queryNs, checks   int64
	calls             int64
	pm                *hierarchy.PairMatrix
	a                 *core.Analysis // kept for the traced kernel replay
	names             []string
	ivs               []*interval.Interval
}

// pass runs the relcheck -matrix pipeline once (decode, execution,
// analysis, intervals, then the batch matrix) and then resolves every pair
// on its own (see queries). heap, when set, samples the live heap after
// set-up and after the matrix (time excluded).
func (w *offlineMatrix) pass(sp *spans, id int64, heap *heapSampler, event, detect *hist) (offlinePass, error) {
	var p offlinePass
	sp.begin(spPass, id)
	defer sp.end()
	t0 := now()
	sp.begin(spSetup, id)
	sp.begin(spDecode, id)
	f, err := trace.ReadJSON(bytes.NewReader(w.data))
	sp.end()
	p.calls++
	if err != nil {
		return p, fmt.Errorf("decode: %w", err)
	}
	sp.begin(spExecution, id)
	ex, err := f.Execution()
	sp.end()
	p.calls++
	if err != nil {
		return p, fmt.Errorf("execution: %w", err)
	}
	sp.begin(spNewAnalysis, id)
	a := core.NewAnalysis(ex)
	sp.end()
	p.calls++
	p.names = f.IntervalNames()
	p.ivs = make([]*interval.Interval, len(p.names))
	ready := make([]int64, len(p.names))
	for i, name := range p.names {
		sp.begin(spIntervalBuild, id)
		p.ivs[i], err = f.Interval(ex, name)
		ready[i] = now()
		sp.endAs(-1, ready[i])
		p.calls++
		if err != nil {
			return p, fmt.Errorf("interval %s: %w", name, err)
		}
	}
	sp.end() // setup
	p.setupNs = now() - t0
	if heap != nil {
		heap.sample(1)
	}

	t1 := now()
	sp.begin(spMatrix, id)
	eng := batch.New(a, batch.Options{Workers: w.size.workers})
	p.pm, _, err = eng.Matrix(p.names, p.ivs)
	done := now()
	sp.endAs(-1, done)
	p.matrixNs = done - t1
	p.calls++
	if err != nil {
		return p, fmt.Errorf("matrix: %w", err)
	}
	if detect != nil {
		// A pair becomes evaluable when the later of its two intervals is
		// built, and the matrix delivers every verdict at once: the 2k
		// ordered pairs whose later interval is the k-th share one latency.
		for k, r := range ready {
			detect.addN(done-r, uint64(2*k))
		}
	}
	if heap != nil {
		heap.sample(2)
	}
	p.a = a
	t2 := now()
	p.checks, err = queries(sp, a, p.ivs, event)
	p.queryNs = now() - t2
	p.calls += int64(w.pairs)
	return p, err
}

func (p *offlinePass) wallNs() int64 { return p.setupNs + p.matrixNs + p.queryNs }

// mismatches compares the matrix with the oracle on the sampled pairs and
// returns the disagreements and the pairs compared.
func (w *offlineMatrix) mismatches(p *offlinePass) (bad, compared int64) {
	pos := make(map[string]int, len(p.pm.Names))
	for i, n := range p.pm.Names {
		pos[n] = i
	}
	for i, x := range w.sample {
		for j, y := range w.sample {
			if i == j {
				continue
			}
			compared++
			got := p.pm.Cells[pos[x]][pos[y]]
			want := w.want.Cells[i][j]
			if got.Overlap != want.Overlap || !slices.Equal(got.Strongest, want.Strongest) {
				bad++
			}
		}
	}
	return bad, compared
}

// queries resolves every ordered pair on its own, serially, the way a
// pair-by-pair consumer (relcheck -x X -y Y -strongest) would: the fused
// Table 1 kernel, then hierarchy.Strongest over the held relations. Each
// query's time goes to event (when non-nil). It returns the kernel's
// comparisons.
func queries(sp *spans, a *core.Analysis, ivs []*interval.Interval, event *hist) (checks int64, err error) {
	rels := core.Relations()
	held := make([]core.Relation, 0, len(rels))
	var id int64
	for i, x := range ivs {
		for j, y := range ivs {
			if i == j {
				continue
			}
			t0 := now()
			sp.begin(spTable1, id)
			v, c := a.EvalTable1(x, y)
			sp.end()
			checks += c
			held = held[:0]
			for _, r := range rels {
				if v&(1<<uint(r)) != 0 {
					held = append(held, r)
				}
			}
			sp.begin(spStrongest, id)
			strongest := hierarchy.Strongest(held)
			sp.end()
			t1 := now()
			if len(strongest) == 0 && len(held) > 0 {
				return checks, fmt.Errorf("pair %d: no strongest relation among %v", id, held)
			}
			if event != nil {
				event.add(t1 - t0)
			}
			id++
		}
	}
	return checks, nil
}

// coldCuts times the first Analysis.Cuts of every interval on a fresh
// analysis of the pass's execution (the matrix has warmed the pass's own).
func coldCuts(sp *spans, p *offlinePass) {
	a := core.NewAnalysis(p.a.Execution())
	for i, iv := range p.ivs {
		sp.begin(spCutBuild, int64(i))
		a.Cuts(iv)
		sp.end()
	}
}

func runOffline(size offlineSize, cfg runConfig) (*result, error) {
	w, err := newOfflineMatrix(size, cfg.seed)
	if err != nil {
		return nil, err
	}
	return w.run(cfg)
}

func (w *offlineMatrix) run(cfg runConfig) (*result, error) {
	res := &result{metrics: map[string]float64{}}
	check := func(p *offlinePass) {
		bad, compared := w.mismatches(p)
		res.attempted += p.calls + compared
		res.mismatches += bad
		res.failed += bad
	}
	deadline := time.Now().Add(cfg.seconds)

	// Untimed first pass: warms up and samples the heap.
	heap := newHeapSampler(1)
	mem, err := w.pass(nil, 0, heap, nil, nil)
	if err != nil {
		return nil, err
	}
	check(&mem)

	if !cfg.trace {
		var setup, evRate, pairRate []float64
		var event, detect hist
		var eventQ, detectQ passQuantiles
		for i := 0; i < cfg.minPasses || time.Now().Before(deadline); i++ {
			p, err := w.pass(nil, int64(i), nil, &event, &detect)
			if err != nil {
				return nil, err
			}
			check(&p)
			eventQ.take(&event)
			detectQ.take(&detect)
			setup = append(setup, float64(p.setupNs)/1e9)
			pairRate = append(pairRate, float64(w.pairs)/(float64(p.matrixNs)/1e9))
			evRate = append(evRate, float64(w.events)/(float64(p.setupNs+p.matrixNs)/1e9))
		}
		m := res.metrics
		m["setup_s"] = median(setup)
		m["events_per_s"] = median(evRate)
		m["pairs_per_s"] = median(pairRate)
		eventQ.put(res, "event")
		detectQ.put(res, "detect")
		m["peak_heap_mib"] = float64(heap.peak) / (1 << 20)
		return res, nil
	}

	sp := newSpans()
	var plain, traced []float64
	var allocs, bytesAlloc, gcs float64
	var tracedLoop, checks, pairs, matrixTraced int64
	for i := 0; i < 2*cfg.minPasses || time.Now().Before(deadline); i++ {
		if i%2 == 0 {
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			p, err := w.pass(nil, int64(i), nil, nil, nil)
			runtime.ReadMemStats(&m1)
			if err != nil {
				return nil, err
			}
			check(&p)
			plain = append(plain, float64(p.wallNs()))
			allocs += float64(m1.Mallocs - m0.Mallocs)
			bytesAlloc += float64(m1.TotalAlloc - m0.TotalAlloc)
			gcs += float64(m1.NumGC - m0.NumGC)
			continue
		}
		p, err := w.pass(sp, int64(i), nil, nil, nil)
		if err != nil {
			return nil, err
		}
		check(&p)
		traced = append(traced, float64(p.wallNs()))
		tracedLoop += p.wallNs()
		matrixTraced += p.matrixNs
		checks += p.checks
		pairs += int64(w.pairs)
		coldCuts(sp, &p)
	}
	plainPairs := float64(len(plain) * w.pairs)
	m := res.metrics
	passes := float64(sp.count[spPass])
	m["trace.decode_ns"] = sp.meanNs(spDecode)
	m["poset.execution_ns"] = sp.meanNs(spExecution)
	m["core.new_analysis_ns"] = sp.meanNs(spNewAnalysis)
	m["interval.build_ns"] = float64(sp.total[spIntervalBuild]) / passes
	m["core.cut_build_ns_per_interval"] = sp.meanNs(spCutBuild)
	m["core.table1_ns_per_pair"] = sp.meanNs(spTable1)
	m["core.comparisons_per_pair"] = float64(checks) / float64(pairs)
	m["hierarchy.strongest_ns_per_pair"] = sp.meanNs(spStrongest)
	m["batch.matrix_ns_per_pair"] = float64(sp.total[spMatrix]) / float64(pairs)
	m["batch.parallel_efficiency"] = float64(sp.total[spTable1]+sp.total[spStrongest]) / (float64(matrixTraced) * float64(w.size.workers))
	var covered int64
	for _, s := range []int{spDecode, spExecution, spNewAnalysis, spIntervalBuild, spMatrix, spTable1, spStrongest} {
		covered += sp.total[s]
	}
	m["spans.unattributed_share"] = 1 - float64(covered)/float64(tracedLoop)
	m["spans.overhead_share"] = median(traced)/median(plain) - 1
	m["alloc_bytes_per_event"] = bytesAlloc / plainPairs
	m["allocs_per_event"] = allocs / plainPairs
	m["gc_cycles_per_kevent"] = 1000 * gcs / plainPairs
	if cfg.spansOut != "" {
		if err := sp.writeChrome(cfg.spansOut, cfg.workload, cfg.seed); err != nil {
			return nil, fmt.Errorf("write spans: %w", err)
		}
	}
	return res, nil
}
