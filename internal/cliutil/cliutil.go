// Package cliutil holds the flag and lifecycle helpers shared by the cmd/
// binaries, so their common observability surface cannot drift between
// commands: every CLI registers -log/-log-level through AddLogFlags,
// -sample-interval/-tsdb-out through AddSampleFlags, and flushes -metrics/
// -trace-out through FlushObs. A parity test source-scans cmd/ and fails
// when a command hand-rolls one of these instead.
package cliutil

import (
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"strings"
	"time"

	"causet/internal/obs"
	"causet/internal/obs/tsdb"
)

// LogFlags carries the shared -log / -log-level flag values.
type LogFlags struct {
	out   *string
	level *string
}

// AddLogFlags registers the canonical -log and -log-level flags on fs.
func AddLogFlags(fs *flag.FlagSet) *LogFlags {
	return &LogFlags{
		out:   fs.String("log", "", "write a structured JSONL event log to this file (- = stderr)"),
		level: fs.String("log-level", "info", "minimum -log level: debug, info, warn, or error"),
	}
}

// Build constructs the logger the flags describe. The logger is nil when
// -log was not given, and a nil logger means logging is off, so callers
// guard their log calls with a nil check; close releases the log file and
// must run after the last log call. stderr is the writer "-log -" selects.
func (lf *LogFlags) Build(stderr io.Writer) (lg *slog.Logger, close func(), err error) {
	if *lf.out == "" {
		return nil, func() {}, nil
	}
	lvl, err := ParseLevel(*lf.level)
	if err != nil {
		return nil, nil, err
	}
	w := stderr
	close = func() {}
	if *lf.out != "-" {
		f, err := os.Create(*lf.out)
		if err != nil {
			return nil, nil, err
		}
		w = f
		close = func() { f.Close() }
	}
	return obs.NewLogger(w, lvl), close, nil
}

// ParseLevel maps a -log-level flag value to a level. It is
// case-insensitive, ignores surrounding space, and accepts "warning" for
// warn, which slog.Level.UnmarshalText rejects.
func ParseLevel(s string) (slog.Level, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "debug":
		return slog.LevelDebug, nil
	case "info":
		return slog.LevelInfo, nil
	case "warn", "warning":
		return slog.LevelWarn, nil
	case "error":
		return slog.LevelError, nil
	}
	return slog.LevelDebug, fmt.Errorf("cliutil: unknown level %q (want debug|info|warn|error)", s)
}

// SampleFlags carries the shared -sample-interval / -tsdb-out flag values.
type SampleFlags struct {
	interval *time.Duration
	out      *string
}

// AddSampleFlags registers the canonical -sample-interval and -tsdb-out
// flags on fs.
func AddSampleFlags(fs *flag.FlagSet) *SampleFlags {
	return &SampleFlags{
		interval: fs.Duration("sample-interval", tsdb.DefaultInterval,
			"cadence at which the in-process time-series store samples the metrics registry"),
		out: fs.String("tsdb-out", "",
			"write the sampled time-series store as a JSON dump to this file at exit (- = stderr)"),
	}
}

// Interval reports the parsed -sample-interval.
func (sf *SampleFlags) Interval() time.Duration { return *sf.interval }

// Out reports the parsed -tsdb-out path ("" = none).
func (sf *SampleFlags) Out() string { return *sf.out }

// Telemetry bundles the tsdb store + sampler lifecycle the CLIs share. All
// methods are nil-safe so commands can thread a nil *Telemetry through when
// sampling is off.
type Telemetry struct {
	Store   *tsdb.Store
	Sampler *tsdb.Sampler
}

// NewTelemetry builds a store and a sampler over reg at the given cadence
// without starting the sampling goroutine — wire Sampler.AfterSample (the
// alert engine's evaluation hook) first, then call Start.
func NewTelemetry(reg *obs.Registry, interval time.Duration) *Telemetry {
	st := tsdb.NewStore(tsdb.Options{})
	return &Telemetry{Store: st, Sampler: tsdb.NewSampler(reg, st, interval)}
}

// Start launches the sampling goroutine.
func (t *Telemetry) Start() {
	if t == nil {
		return
	}
	t.Sampler.Start()
}

// Stop halts the sampling goroutine; safe on any path, any number of times.
func (t *Telemetry) Stop() {
	if t == nil {
		return
	}
	t.Sampler.Stop()
}

// Close stops the sampler and takes one final sample stamped at now, so even
// a run shorter than the interval leaves the end-state in the store (and, via
// AfterSample, gives the alert engine a final evaluation).
func (t *Telemetry) Close(now time.Time) {
	if t == nil {
		return
	}
	t.Sampler.Stop()
	t.Sampler.SampleOnce(now)
}

// TSDB returns the underlying store (nil on a nil Telemetry), for APIs like
// flight.Recorder.Attach that accept a possibly-nil store.
func (t *Telemetry) TSDB() *tsdb.Store {
	if t == nil {
		return nil
	}
	return t.Store
}

// WriteDump writes the store's full dump ("-" = stderr) as indented JSON —
// the -tsdb-out exit path. No-op when path is empty or t is nil.
func (t *Telemetry) WriteDump(path string, now time.Time, stderr io.Writer) error {
	if t == nil || path == "" {
		return nil
	}
	w := stderr
	if path != "-" {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	return t.Store.Dump(0, now).WriteJSON(w)
}

// FlushObs writes the -metrics snapshot and -trace-out file at the end of a
// run. metricsOut of "-" selects stderr. Either output may be disabled by an
// empty path or a nil registry/tracer.
func FlushObs(reg *obs.Registry, tr *obs.Tracer, metricsOut, traceOut string, stderr io.Writer) error {
	if reg != nil && metricsOut != "" {
		w := stderr
		if metricsOut != "-" {
			f, err := os.Create(metricsOut)
			if err != nil {
				return err
			}
			defer f.Close()
			w = f
		}
		if err := reg.Snapshot().WriteJSON(w); err != nil {
			return err
		}
	}
	if tr != nil && traceOut != "" {
		f, err := os.Create(traceOut)
		if err != nil {
			return err
		}
		defer f.Close()
		return tr.WriteJSON(f)
	}
	return nil
}
