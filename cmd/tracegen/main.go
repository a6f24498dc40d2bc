// Command tracegen generates a synthetic distributed execution and writes it
// as a trace file (JSON or gob, chosen by extension) with the workload's
// phases stored as named nonatomic events.
//
// Usage:
//
//	tracegen -pattern ring -procs 8 -rounds 5 -seed 1 -o trace.json
//	tracegen -pattern random -procs 6 -events 200 -msgprob 0.5 -o trace.gob
//
// The named intervals can then be analyzed with relcheck and syncmon.
//
// Observability: -metrics dumps an internal/obs registry snapshot as JSON
// (file path, or - for stderr) with the generated event/message/interval
// counts; -trace-out writes a Chrome trace_event file spanning the
// generate/save/stats phases; -log writes a structured JSONL event log
// (gated by -log-level) covering the generate/save phases.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"causet/internal/buildinfo"
	"causet/internal/cliutil"
	"causet/internal/obs"
	"causet/internal/poset"
	"causet/internal/rt"
	"causet/internal/sim"
	"causet/internal/trace"
)

// stderrW is where "-metrics -" goes; a variable so tests can capture it.
var stderrW io.Writer = os.Stderr

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "tracegen:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("tracegen", flag.ContinueOnError)
	pattern := fs.String("pattern", "random", "workload pattern: random|ring|clientserver|broadcast|pipeline|gossip|periodic")
	procs := fs.Int("procs", 4, "number of processes")
	events := fs.Int("events", 100, "total events (random pattern)")
	rounds := fs.Int("rounds", 5, "rounds/sessions/items (structured patterns)")
	msgprob := fs.Float64("msgprob", 0.4, "message probability (random pattern)")
	compute := fs.Int("compute", 2, "per-round local events (periodic pattern)")
	seed := fs.Int64("seed", 1, "PRNG seed")
	output := fs.String("o", "trace.json", "output path (.json or .gob)")
	stats := fs.Bool("stats", true, "print trace statistics")
	timing := fs.Bool("timing", false, "attach synthesized physical timestamps")
	maxLatency := fs.Duration("maxlatency", 20*time.Millisecond, "max message latency for -timing")
	metricsOut := fs.String("metrics", "", "write a metrics-registry snapshot as JSON to this file (- = stderr)")
	traceOut := fs.String("trace-out", "", "write a Chrome trace_event JSON file (Perfetto/about://tracing)")
	lf := cliutil.AddLogFlags(fs)
	version := fs.Bool("version", false, "print build information and exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *version {
		buildinfo.Current().Print(out, "tracegen")
		return nil
	}

	lg, logClose, err := lf.Build(stderrW)
	if err != nil {
		return err
	}
	defer logClose()

	var reg *obs.Registry
	if *metricsOut != "" {
		reg = obs.New()
	}
	var tr *obs.Tracer
	if *traceOut != "" {
		tr = obs.NewTracer()
	}

	p, err := sim.ParsePattern(*pattern)
	if err != nil {
		return err
	}
	genSpan := tr.Begin("tracegen", "generate")
	res, err := sim.Generate(sim.Config{
		Pattern: p, Procs: *procs, Events: *events, Rounds: *rounds,
		MsgProb: *msgprob, Compute: *compute, Seed: *seed,
	})
	genSpan.End()
	if err != nil {
		if lg != nil {
			lg.Error("generate_failed", "pattern", p.String(), "err", err)
		}
		return err
	}
	if lg != nil {
		lg.Info("trace_generated", "pattern", p.String(), "procs", *procs, "seed", *seed)
	}

	named := make(map[string][]poset.EventID, len(res.Phases))
	for _, ph := range res.Phases {
		named[ph.Name] = ph.Events
	}
	f := trace.New(res.Exec, named)
	if *timing {
		f.SetTiming(rt.Synthesize(res.Exec, rt.SynthesizeConfig{
			MinLatency: *maxLatency / 10,
			MaxLatency: *maxLatency,
			Seed:       *seed,
		}))
	}
	saveSpan := tr.Begin("tracegen", "save")
	err = f.Save(*output)
	saveSpan.End()
	if err != nil {
		return err
	}
	if lg != nil {
		lg.Info("trace_saved", "path", *output)
	}

	st := res.Exec.Stats()
	reg.Counter("tracegen.events").Add(int64(st.Events))
	reg.Counter("tracegen.messages").Add(int64(st.Messages))
	reg.Counter("tracegen.intervals").Add(int64(len(res.Phases)))
	fmt.Fprintf(out, "wrote %s: pattern=%s procs=%d events=%d messages=%d intervals=%d\n",
		*output, p, st.Procs, st.Events, st.Messages, len(res.Phases))
	if *stats {
		statsSpan := tr.Begin("tracegen", "stats")
		full := trace.ComputeStats(res.Exec)
		statsSpan.End()
		fmt.Fprintf(out, "causal density: %.3f (%d ordered pairs)\n", full.Density, full.OrderedPairs)
	}
	return cliutil.FlushObs(reg, tr, *metricsOut, *traceOut, stderrW)
}
