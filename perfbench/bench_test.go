package main

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"causet/internal/core"
	"causet/internal/monitor"
)

var (
	checkTiny    = checkSize{procs: 4, rounds: 12}
	retainedTiny = retainedSize{procs: 4, rounds: 64, window: 64, every: 16, lag: 3, lagEvery: 2}
	offlineTiny  = offlineSize{procs: 6, rounds: 12, workers: 2, sample: 6}
)

func tinyConfig(trace bool) runConfig {
	return runConfig{seed: 7, seconds: time.Millisecond, trace: trace, minPasses: 1, workload: "tiny"}
}

// tinyRuns runs every workload at a tiny size.
var tinyRuns = map[string]func(runConfig) (*result, error){
	"stream-check":    func(c runConfig) (*result, error) { return runStreamCheck(checkTiny, c) },
	"stream-retained": func(c runConfig) (*result, error) { return runStreamRetained(retainedTiny, c) },
	"offline-matrix":  func(c runConfig) (*result, error) { return runOffline(offlineTiny, c) },
}

func TestHistQuantilesMatchSort(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var h hist
	xs := make([]int64, 100000)
	for i := range xs {
		// Log-normal around 2µs with a heavy tail, like step latencies.
		xs[i] = int64(math.Exp(rng.NormFloat64()*1.5 + 7.6))
		h.add(xs[i])
	}
	sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
	for _, q := range []float64{0.001, 0.01, 0.25, 0.5, 0.9, 0.99, 0.999, 1} {
		exact := xs[int(math.Ceil(q*float64(len(xs))))-1]
		got := h.quantile(q)
		if histIndex(int64(got)) != histIndex(exact) {
			lo, width := histBounds(histIndex(exact))
			t.Errorf("q=%g: estimate %.1f outside the bucket [%g, %g) of the exact %d", q, got, lo, lo+width, exact)
		}
	}
}

func TestHistBucketsCoverRange(t *testing.T) {
	for _, v := range []int64{0, 1, 31, 32, 33, 63, 64, 1000, 1 << 20, 1<<40 + 12345, 1<<62 + 5} {
		i := histIndex(v)
		lo, width := histBounds(i)
		if float64(v) < lo || float64(v) >= lo+width {
			t.Errorf("value %d maps to bucket %d = [%g, %g)", v, i, lo, lo+width)
		}
	}
}

// TestWorkloadsTiny runs each workload in both modes at a tiny size and
// checks the oracle agreed and every metric is reported with its unit.
func TestWorkloadsTiny(t *testing.T) {
	for name, run := range tinyRuns {
		for _, trace := range []bool{false, true} {
			res, err := run(tinyConfig(trace))
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			if !res.correct() || res.attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", name, trace, res.correct(), res.attempted, res.failed)
			}
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			var buf bytes.Buffer
			if err := writeResult(&buf, defs, res); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
			var out struct {
				Correct   bool  `json:"correct"`
				Attempted int64 `json:"attempted"`
				Failed    int64 `json:"failed"`
				Metrics   map[string]struct {
					Value float64 `json:"value"`
					Unit  string  `json:"unit"`
				} `json:"metrics"`
			}
			dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&out); err != nil {
				t.Fatalf("%s: result line: %v", name, err)
			}
			if len(out.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics, want %d", name, trace, len(out.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := out.Metrics[d.name]
				if !ok || m.Unit != d.unit {
					t.Errorf("%s: metric %s = %+v, want unit %s", name, d.name, m, d.unit)
				}
				if !trace && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %g, want > 0", name, d.name, m.Value)
				}
			}
		}
	}
}

func flip(s monitor.State) monitor.State {
	if s == monitor.Holds {
		return monitor.Violated
	}
	return monitor.Holds
}

// TestFlippedVerdictFails feeds each oracle one wrong verdict and expects
// the run to report the disagreement.
func TestFlippedVerdictFails(t *testing.T) {
	cfg := tinyConfig(false)
	sc, err := newStreamCheck(checkTiny, cfg.seed)
	if err != nil {
		t.Fatal(err)
	}
	sc.want[3] = flip(sc.want[3])
	sr, err := newStreamRetained(retainedTiny, cfg.seed)
	if err != nil {
		t.Fatal(err)
	}
	sr.want[5] = flip(sr.want[5])
	for name, w := range map[string]streamPasser{"stream-check": sc, "stream-retained": sr} {
		res, err := runStream(w, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.correct() || res.mismatches == 0 {
			t.Errorf("%s: flipped oracle verdict went unnoticed (mismatches %d)", name, res.mismatches)
		}
	}

	om, err := newOfflineMatrix(offlineTiny, cfg.seed)
	if err != nil {
		t.Fatal(err)
	}
	cell := &om.want.Cells[0][1]
	if len(cell.Strongest) == 1 && cell.Strongest[0] == core.R1 {
		cell.Strongest = []core.Relation{core.R4}
	} else {
		cell.Strongest = []core.Relation{core.R1}
	}
	res, err := om.run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.correct() {
		t.Error("offline-matrix: flipped oracle cell went unnoticed")
	}
	var buf bytes.Buffer
	if err := writeResult(&buf, endToEnd, res); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `{"correct":false,`) {
		t.Errorf("result line does not report correct=false:\n%s", buf.String())
	}
}

// exactCounts are the per-layer metrics that must repeat exactly across
// two runs of one seed (allocs_per_event depends on the runtime and is
// excluded).
var exactCounts = []string{
	"online.listing_entries_per_event",
	"online.snapshots_per_settlement",
	"core.cut_builds_per_settlement",
	"core.fast_comparisons_per_settlement",
	"online.compactions",
	"core.comparisons_per_pair",
	"online.retained_events_max",
	"obs.series",
}

// TestExactCountsRepeat checks that the per-layer counts repeat exactly
// across two traced runs of one seed, so later changes can claim them.
func TestExactCountsRepeat(t *testing.T) {
	for name, run := range tinyRuns {
		a, err := run(tinyConfig(true))
		if err != nil {
			t.Fatal(err)
		}
		b, err := run(tinyConfig(true))
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range exactCounts {
			if a.metrics[c] != b.metrics[c] {
				t.Errorf("%s: %s = %g then %g", name, c, a.metrics[c], b.metrics[c])
			}
		}
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the program's metric
// and workload lists in step.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type def struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	var bj struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []def `json:"end_to_end"`
		PerLayer []def `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(bj.Workloads), len(workloads))
	}
	for i, w := range bj.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: %s in BENCHMARK.json, %s in the program", i, w.Name, workloads[i].name)
		}
	}
	same := func(kind string, got []def, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the program", kind, len(got), len(want))
		}
		for i, d := range got {
			if d.Name != want[i].name || d.Unit != want[i].unit || d.Better != want[i].better {
				t.Errorf("%s %d: %+v in BENCHMARK.json, %+v in the program", kind, i, d, want[i])
			}
		}
	}
	same("end_to_end", bj.EndToEnd, endToEnd)
	same("per_layer", bj.PerLayer, perLayer)
	for _, d := range bj.EndToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", d.Name, d.Bound)
		}
	}
}

func TestMainRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"-workload", "nope"},
		{"-workload", "stream-check", "-trace", "2"},
		{"-workload", "stream-check", "-seconds", "0"},
	} {
		var out, errOut bytes.Buffer
		if code := mainErr(args, &out, &errOut); code == 0 || out.Len() != 0 {
			t.Errorf("%v: exit %d, stdout %q", args, code, out.String())
		}
	}
}
