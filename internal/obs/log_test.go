package obs

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"log/slog"
	"strings"
	"sync"
	"testing"
	"time"
)

// parseLines decodes every JSONL line of buf.
func parseLines(t *testing.T, buf *bytes.Buffer) []map[string]any {
	t.Helper()
	var out []map[string]any
	sc := bufio.NewScanner(bytes.NewReader(buf.Bytes()))
	for sc.Scan() {
		var m map[string]any
		if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
			t.Fatalf("line is not valid JSON: %v\n%s", err, sc.Text())
		}
		out = append(out, m)
	}
	return out
}

// emitAt writes one record with a fixed timestamp through lg's handler —
// the path every Logger call takes, minus the wall clock.
func emitAt(t *testing.T, lg *slog.Logger, at time.Time, lvl slog.Level, event string, args ...any) {
	t.Helper()
	r := slog.NewRecord(at, lvl, event, 0)
	r.Add(args...)
	if err := lg.Handler().Handle(context.Background(), r); err != nil {
		t.Fatal(err)
	}
}

// TestLoggerJSONL pins the line format byte for byte: prefix keys ts, level,
// event in that order; ts in UTC with nanoseconds whatever the record's
// zone; lower-case levels; fields in call order; errors as their message.
func TestLoggerJSONL(t *testing.T) {
	var buf bytes.Buffer
	lg := NewLogger(&buf, slog.LevelDebug)
	at := time.Date(2026, 8, 6, 14, 0, 0, 1, time.FixedZone("CEST", 2*60*60))
	emitAt(t, lg, at, slog.LevelInfo, "condition_settled", "condition", "ordered", "state", "holds", "n", 3)
	emitAt(t, lg, at, slog.LevelDebug, "interval_observe", "interval", "x")
	emitAt(t, lg, at.Add(time.Millisecond), slog.LevelWarn, "condition_skipped", "condition", "c")
	emitAt(t, lg, at, slog.LevelError, "boom", "err", errors.New("kaput"), "detect_latency_ns", int64(10_000_000))
	want := `{"ts":"2026-08-06T12:00:00.000000001Z","level":"info","event":"condition_settled","condition":"ordered","state":"holds","n":3}
{"ts":"2026-08-06T12:00:00.000000001Z","level":"debug","event":"interval_observe","interval":"x"}
{"ts":"2026-08-06T12:00:00.001000001Z","level":"warn","event":"condition_skipped","condition":"c"}
{"ts":"2026-08-06T12:00:00.000000001Z","level":"error","event":"boom","err":"kaput","detect_latency_ns":10000000}
`
	if got := buf.String(); got != want {
		t.Errorf("log lines drifted:\n--- got ---\n%s--- want ---\n%s", got, want)
	}

	// The wall-clock path stamps a parseable UTC time.
	buf.Reset()
	lg.Info("now")
	lines := parseLines(t, &buf)
	ts, _ := lines[0]["ts"].(string)
	if parsed, err := time.Parse(time.RFC3339Nano, ts); err != nil || !strings.HasSuffix(ts, "Z") || time.Since(parsed) > time.Minute {
		t.Errorf("ts = %q (%v), want a recent UTC RFC 3339 time", ts, err)
	}
}

func TestLoggerLevelGate(t *testing.T) {
	var buf bytes.Buffer
	lg := NewLogger(&buf, slog.LevelWarn)
	lg.Debug("d")
	lg.Info("i")
	lg.Warn("w")
	lg.Error("e")
	lines := parseLines(t, &buf)
	if len(lines) != 2 || lines[0]["event"] != "w" || lines[1]["event"] != "e" {
		t.Errorf("Warn-level logger emitted: %v", lines)
	}
	ctx := context.Background()
	if lg.Enabled(ctx, slog.LevelInfo) || !lg.Enabled(ctx, slog.LevelError) {
		t.Error("Enabled gate wrong")
	}
}

// TestLoggerWith: bound fields follow the prefix keys and precede the
// per-call fields.
func TestLoggerWith(t *testing.T) {
	var buf bytes.Buffer
	lg := NewLogger(&buf, slog.LevelDebug).With("node", 2)
	emitAt(t, lg, time.Unix(12, 34), slog.LevelInfo, "send", "to", 3)
	want := `{"ts":"1970-01-01T00:00:12.000000034Z","level":"info","event":"send","node":2,"to":3}` + "\n"
	if got := buf.String(); got != want {
		t.Errorf("got %s want %s", got, want)
	}
}

// TestLoggerConcurrent: concurrent emitters (including With children)
// write whole lines — every line stays parseable. Run under -race in CI.
func TestLoggerConcurrent(t *testing.T) {
	var buf bytes.Buffer
	lg := NewLogger(&buf, slog.LevelDebug)
	var wg sync.WaitGroup
	const goroutines, perG = 8, 200
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			child := lg.With("g", id)
			for i := 0; i < perG; i++ {
				child.Info("tick", "i", i)
			}
		}(g)
	}
	wg.Wait()
	lines := parseLines(t, &buf)
	if len(lines) != goroutines*perG {
		t.Errorf("got %d lines, want %d", len(lines), goroutines*perG)
	}
}

func TestUnmarshalableFieldDegrades(t *testing.T) {
	var buf bytes.Buffer
	lg := NewLogger(&buf, slog.LevelDebug)
	lg.Info("odd", "ch", make(chan int))
	lines := parseLines(t, &buf)
	if len(lines) != 1 {
		t.Fatalf("unmarshalable field dropped the line:\n%s", buf.String())
	}
	if _, ok := lines[0]["ch"].(string); !ok {
		t.Errorf("degraded field should be a string: %v", lines[0])
	}
}
