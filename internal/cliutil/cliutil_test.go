package cliutil

import (
	"bytes"
	"encoding/json"
	"flag"
	"log/slog"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"causet/internal/obs"
	"causet/internal/obs/tsdb"
)

func TestLogFlagsBuild(t *testing.T) {
	// Unset: nil logger, non-nil close.
	fs := flag.NewFlagSet("x", flag.ContinueOnError)
	lf := AddLogFlags(fs)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	lg, closeFn, err := lf.Build(os.Stderr)
	if err != nil || lg != nil {
		t.Fatalf("unset -log: lg=%v err=%v", lg, err)
	}
	closeFn()

	// "-" selects the given stderr writer.
	fs = flag.NewFlagSet("x", flag.ContinueOnError)
	lf = AddLogFlags(fs)
	if err := fs.Parse([]string{"-log", "-", "-log-level", "debug"}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	lg, closeFn, err = lf.Build(&buf)
	if err != nil || lg == nil {
		t.Fatalf("-log -: lg=%v err=%v", lg, err)
	}
	lg.Debug("hello")
	closeFn()
	if !strings.Contains(buf.String(), `"hello"`) {
		t.Errorf("log output %q lacks event", buf.String())
	}

	// File path creates the file.
	path := filepath.Join(t.TempDir(), "x.jsonl")
	fs = flag.NewFlagSet("x", flag.ContinueOnError)
	lf = AddLogFlags(fs)
	if err := fs.Parse([]string{"-log", path}); err != nil {
		t.Fatal(err)
	}
	lg, closeFn, err = lf.Build(os.Stderr)
	if err != nil {
		t.Fatal(err)
	}
	lg.Info("to_file")
	closeFn()
	data, err := os.ReadFile(path)
	if err != nil || !strings.Contains(string(data), "to_file") {
		t.Errorf("log file: %v %q", err, data)
	}

	// Bad level errors.
	fs = flag.NewFlagSet("x", flag.ContinueOnError)
	lf = AddLogFlags(fs)
	if err := fs.Parse([]string{"-log", "-", "-log-level", "loud"}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := lf.Build(os.Stderr); err == nil {
		t.Error("bad -log-level accepted")
	}
}

func TestParseLevel(t *testing.T) {
	for s, want := range map[string]slog.Level{
		"debug": slog.LevelDebug, "INFO": slog.LevelInfo, "warn": slog.LevelWarn,
		"warning": slog.LevelWarn, " error ": slog.LevelError,
	} {
		got, err := ParseLevel(s)
		if err != nil || got != want {
			t.Errorf("ParseLevel(%q) = %v, %v", s, got, err)
		}
	}
	_, err := ParseLevel("loud")
	if want := `unknown level "loud" (want debug|info|warn|error)`; err == nil || !strings.HasSuffix(err.Error(), want) {
		t.Errorf("ParseLevel(loud) error = %v, want one ending %q", err, want)
	}
}

func TestSampleFlagsDefaults(t *testing.T) {
	fs := flag.NewFlagSet("x", flag.ContinueOnError)
	sf := AddSampleFlags(fs)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if sf.Interval() != tsdb.DefaultInterval || sf.Out() != "" {
		t.Errorf("defaults: interval=%v out=%q", sf.Interval(), sf.Out())
	}
	fs = flag.NewFlagSet("x", flag.ContinueOnError)
	sf = AddSampleFlags(fs)
	if err := fs.Parse([]string{"-sample-interval", "250ms", "-tsdb-out", "d.json"}); err != nil {
		t.Fatal(err)
	}
	if sf.Interval() != 250*time.Millisecond || sf.Out() != "d.json" {
		t.Errorf("parsed: interval=%v out=%q", sf.Interval(), sf.Out())
	}
}

func TestTelemetryLifecycleAndDump(t *testing.T) {
	reg := obs.New()
	reg.Counter("x.count").Add(7)
	tel := NewTelemetry(reg, time.Second)
	tel.Start()
	tel.Stop() // idempotent with Close's Stop below
	now := time.Unix(1_700_000_000, 0)
	tel.Close(now)
	if p, ok := tel.TSDB().Latest("x.count"); !ok || p.V != 7 {
		t.Fatalf("final sample missing: %v %v", p, ok)
	}

	path := filepath.Join(t.TempDir(), "tsdb.json")
	if err := tel.WriteDump(path, now, os.Stderr); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var d tsdb.Dump
	if err := json.Unmarshal(data, &d); err != nil {
		t.Fatal(err)
	}
	if len(d.Series) == 0 || d.TakenAtNS != now.UnixNano() {
		t.Errorf("dump = %+v", d)
	}

	// "-" goes to the given stderr writer.
	var buf bytes.Buffer
	if err := tel.WriteDump("-", now, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"x.count"`) {
		t.Errorf("stderr dump %q lacks series", buf.String())
	}

	// Nil telemetry: every method is a no-op.
	var nilTel *Telemetry
	nilTel.Start()
	nilTel.Stop()
	nilTel.Close(now)
	if nilTel.TSDB() != nil {
		t.Error("nil telemetry has a store")
	}
	if err := nilTel.WriteDump(path, now, os.Stderr); err != nil {
		t.Error(err)
	}
}

func TestFlushObs(t *testing.T) {
	reg := obs.New()
	reg.Counter("flush.me").Add(1)
	tr := obs.NewTracer()
	sp := tr.Begin("t", "s")
	sp.End()

	dir := t.TempDir()
	mPath := filepath.Join(dir, "m.json")
	tPath := filepath.Join(dir, "t.json")
	if err := FlushObs(reg, tr, mPath, tPath, os.Stderr); err != nil {
		t.Fatal(err)
	}
	m, err := os.ReadFile(mPath)
	if err != nil || !strings.Contains(string(m), "flush.me") {
		t.Errorf("metrics file: %v %q", err, m)
	}
	if _, err := os.ReadFile(tPath); err != nil {
		t.Errorf("trace file: %v", err)
	}

	// "-" sends metrics to the given stderr writer; nil reg/tr skip cleanly.
	var buf bytes.Buffer
	if err := FlushObs(reg, nil, "-", "", &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "flush.me") {
		t.Errorf("stderr metrics %q", buf.String())
	}
	if err := FlushObs(nil, nil, "x", "y", os.Stderr); err != nil {
		t.Error(err)
	}
}
