// Command perfbench is the repository benchmark: it drives the library
// through three workloads (two online stream monitors and the offline
// all-pairs matrix), checks every verdict against an independent offline
// oracle, and prints end-to-end metrics (or, with -trace 1, per-layer
// metrics derived from spans around each library call) followed by one JSON
// result line.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload stream-check --seed 1 --seconds 15 --trace 0
//
// See perfbench/README.md for the workloads, the metrics and which layer
// metric should move which end-to-end metric.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

type metricDef struct {
	name, unit, better string
}

// endToEnd are the metrics a user of the library sees; every workload
// reports all of them (README.md gives each one's meaning per workload).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"events_per_s", "1/s", "higher"},
	{"pairs_per_s", "1/s", "higher"},
	{"event_p50_us", "us", "lower"},
	{"event_p90_us", "us", "lower"},
	{"detect_p50_us", "us", "lower"},
	{"detect_p90_us", "us", "lower"},
	{"peak_heap_mib", "MiB", "lower"},
}

// perLayer are the traced run's metrics. A layer that does not run on a
// workload reports 0 there.
var perLayer = []metricDef{
	{"online.append_ns", "ns", "lower"},
	{"online.observe_ns", "ns", "lower"},
	{"online.complete_ns", "ns", "lower"},
	{"online.add_condition_ns", "ns", "lower"},
	{"online.check_idle_ns", "ns", "lower"},
	{"online.check_settle_ns", "ns", "lower"},
	{"online.listing_entries_per_event", "count", "lower"},
	{"online.snapshots_per_settlement", "count", "lower"},
	{"core.cut_builds_per_settlement", "count", "lower"},
	{"core.fast_comparisons_per_settlement", "count", "lower"},
	{"online.compactions", "count", "lower"},
	{"online.compact_call_ns", "ns", "lower"},
	{"online.retained_events_max", "count", "lower"},
	{"online.heap_growth_b_per_event", "B", "lower"},
	{"online.event_cost_growth", "ratio", "lower"},
	{"obs.series", "count", "lower"},
	{"trace.decode_ns", "ns", "lower"},
	{"poset.execution_ns", "ns", "lower"},
	{"core.new_analysis_ns", "ns", "lower"},
	{"interval.build_ns", "ns", "lower"},
	{"core.cut_build_ns_per_interval", "ns", "lower"},
	{"core.table1_ns_per_pair", "ns", "lower"},
	{"core.comparisons_per_pair", "count", "lower"},
	{"hierarchy.strongest_ns_per_pair", "ns", "lower"},
	{"batch.matrix_ns_per_pair", "ns", "lower"},
	{"batch.parallel_efficiency", "ratio", "higher"},
	{"alloc_bytes_per_event", "B", "lower"},
	{"allocs_per_event", "count", "lower"},
	{"gc_cycles_per_kevent", "count", "lower"},
	{"spans.unattributed_share", "ratio", "lower"},
	{"spans.overhead_share", "ratio", "lower"},
}

// runConfig is what every workload run receives.
type runConfig struct {
	seed      int64
	seconds   time.Duration
	trace     bool
	minPasses int    // timed passes run even past the deadline
	spansOut  string // traced run: span file path ("" writes none)
	workload  string
}

// result is one workload run: the API calls and verdict comparisons it
// attempted, how many failed (call errors plus oracle mismatches), and the
// metrics of the requested mode.
type result struct {
	attempted, failed int64
	mismatches        int64
	metrics           map[string]float64
	// info is printed for reading but left out of the result line: the
	// p99 latencies, whose run-to-run spread on a shared machine is wider
	// than any bound the benchmark may fix.
	info []metricValue
}

type metricValue struct {
	name, unit string
	value      float64
}

func (r *result) correct() bool { return r.failed == 0 }

type workload struct {
	name, why string
	run       func(runConfig) (*result, error)
}

var workloads = []workload{
	{
		name: "stream-check",
		why: "the documented Check loop (E14 driver) on an 8-process gossip stream long enough for the O(#conditions) listing " +
			"to dominate: snapshot views, rebase and carried cut caches, no retention",
		run: func(c runConfig) (*result, error) { return runStreamCheck(checkFull, c) },
	},
	{
		name: "stream-retained",
		why: "the syncmon -retention configuration: live causal ring chain, Poll per event, MaxEvents/Every/DropSettled and a registry; " +
			"exercises retention appraisal, compaction, tombstones and telemetry, and bypasses the Check listing",
		run: func(c runConfig) (*result, error) { return runStreamRetained(retainedFull, c) },
	},
	{
		name: "offline-matrix",
		why: "the relcheck -matrix path over a 32-process gossip trace: JSON decode and clock-table setup, fused Table 1 kernel, " +
			"hierarchy.Strongest and the two-worker batch engine, with wide clocks and no online layer",
		run: func(c runConfig) (*result, error) { return runOffline(offlineFull, c) },
	},
}

// gcPercent replaces the default GOGC of 100. The stream workloads keep
// only a few MiB live, so at 100 the collector runs over a hundred cycles a
// second and its cycles roughly double the run-to-run spread; a monitor
// embedded in a real process sits in a larger heap and collects less often.
// Allocation cost still shows in the timings and in the alloc_* metrics.
const gcPercent = 400

func main() {
	debug.SetGCPercent(gcPercent)
	os.Exit(mainErr(os.Args[1:], os.Stdout, os.Stderr))
}

func mainErr(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: stream-check, stream-retained or offline-matrix")
	seed := fs.Int64("seed", 1, "seed of the generated inputs")
	seconds := fs.Float64("seconds", 10, "measuring time of the run")
	trace := fs.Int("trace", 0, "1 runs the traced (per-layer) mode")
	out := fs.String("out", ".bench_build", "directory for the span file of a traced run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need -workload (%s), -seconds > 0 and -trace 0|1\n", workloadNames())
		return 2
	}
	cfg := runConfig{
		seed: *seed, seconds: time.Duration(*seconds * float64(time.Second)),
		trace: *trace == 1, minPasses: 3, workload: w.name,
	}
	if cfg.trace {
		if err := os.MkdirAll(*out, 0o755); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 2
		}
		cfg.spansOut = filepath.Join(*out, "spans-"+w.name+".json")
	}

	bw := bufio.NewWriter(stdout)
	defer bw.Flush()
	for _, line := range machineContext(cfg) {
		fmt.Fprintf(bw, "# %s\n", line)
	}
	fmt.Fprintf(bw, "# workload %s: %s\n", w.name, w.why)
	bw.Flush()

	res, err := w.run(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	if err := writeResult(bw, defs, res); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	if cfg.spansOut != "" {
		fmt.Fprintf(stderr, "perfbench: spans written to %s\n", cfg.spansOut)
	}
	if !res.correct() {
		bw.Flush()
		fmt.Fprintf(stderr, "perfbench: %s: %d failed calls, %d verdicts disagree with the oracle\n", w.name, res.failed-res.mismatches, res.mismatches)
		return 1
	}
	return 0
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

// writeResult prints one "name value unit" line per metric, error_rate,
// and the final JSON result line.
func writeResult(w io.Writer, defs []metricDef, res *result) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value, len(defs))
	for _, d := range defs {
		v := res.metrics[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is %v", d.name, v)
		}
		metrics[d.name] = value{v, d.unit}
		fmt.Fprintf(w, "%-40s %18.6f %s\n", d.name, v, d.unit)
	}
	errRate := float64(res.failed) / float64(max(res.attempted, 1))
	fmt.Fprintf(w, "%-40s %18.6f %s   (%d of %d calls and verdict checks failed)\n", "error_rate", errRate, "ratio", res.failed, res.attempted)
	for _, v := range res.info {
		fmt.Fprintf(w, "%-40s %18.6f %s   (information only)\n", v.name, v.value, v.unit)
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.correct(), max(res.attempted, 1), res.failed, metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// machineContext records what a timing depends on besides the code.
func machineContext(cfg runConfig) []string {
	commit, modified := "unknown", ""
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				commit = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					modified = " (modified)"
				}
			}
		}
	}
	trace := 0
	if cfg.trace {
		trace = 1
	}
	return []string{
		fmt.Sprintf("nproc %d, GOMAXPROCS %d, GOGC %d, cpu %q, %s %s/%s",
			runtime.NumCPU(), runtime.GOMAXPROCS(0), gcPercent, cpuModel(), runtime.Version(), runtime.GOOS, runtime.GOARCH),
		fmt.Sprintf("commit %s%s, seed %d, seconds %g, trace %d", commit, modified, cfg.seed, cfg.seconds.Seconds(), trace),
	}
}

// cpuModel reads the processor name from /proc/cpuinfo, where available.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// median of xs (xs is reordered); 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}
