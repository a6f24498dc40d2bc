package alert

import (
	"bytes"
	"encoding/json"
	"expvar"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"causet/internal/obs"
	"causet/internal/obs/tsdb"
)

var t0 = time.Unix(1_700_000_000, 0)

// fill seeds a store+engine pair: a counter series "v" whose value at each
// 1s tick is given, plus rules.
func engineOver(t *testing.T, rules string, vals []int64) (*tsdb.Store, *Engine) {
	t.Helper()
	st := tsdb.NewStore(tsdb.Options{})
	for i, v := range vals {
		st.Append("v", tsdb.KindCounter, t0.Add(time.Duration(i)*time.Second), v)
	}
	rs, err := ParseRules(rules)
	if err != nil {
		t.Fatal(err)
	}
	return st, NewEngine(st, rs)
}

func TestFireImmediatelyAndResolve(t *testing.T) {
	st, e := engineOver(t, "hot[critical]: rate(v, 10s) > 0", []int64{0, 5})
	var events []Event
	e.AddSink(FuncSink(func(ev Event) { events = append(events, ev) }))

	now := t0.Add(time.Second)
	e.Evaluate(now) // rate 5/s > 0 → fires at once (no "for")
	e.Evaluate(now) // still true → no second event
	if got := e.FiredCount("hot"); got != 1 {
		t.Fatalf("FiredCount = %d, want 1", got)
	}
	if len(events) != 1 || events[0].State != "firing" || events[0].Severity != "critical" {
		t.Fatalf("events = %+v", events)
	}
	if f := e.Firing(); len(f) != 1 || f[0].Rule != "hot" || f[0].SinceNS != now.UnixNano() {
		t.Fatalf("Firing = %+v", f)
	}

	// Counter goes flat: 10s later the rate window still sees the old climb;
	// 20s later it does not → resolve.
	st.Append("v", tsdb.KindCounter, t0.Add(21*time.Second), 5)
	late := t0.Add(21 * time.Second)
	e.Evaluate(late)
	if len(events) != 2 || events[1].State != "resolved" {
		t.Fatalf("events = %+v", events)
	}
	if f := e.Firing(); len(f) != 0 {
		t.Fatalf("Firing after resolve = %+v", f)
	}
	if got := e.FiredCount("hot"); got != 1 {
		t.Fatalf("FiredCount after resolve = %d, want 1", got)
	}
}

func TestForDamper(t *testing.T) {
	_, e := engineOver(t, "hot: rate(v, 60s) > 0 for 5s", []int64{0, 5})
	var events []Event
	e.AddSink(FuncSink(func(ev Event) { events = append(events, ev) }))

	e.Evaluate(t0.Add(1 * time.Second)) // true → pending
	if s := e.Statuses(); s[0].State != "pending" || s[0].SinceNS != t0.Add(time.Second).UnixNano() {
		t.Fatalf("status = %+v", s[0])
	}
	e.Evaluate(t0.Add(3 * time.Second)) // held 2s < 5s → still pending
	if len(events) != 0 {
		t.Fatalf("fired early: %+v", events)
	}
	e.Evaluate(t0.Add(6 * time.Second)) // held 5s → fires
	if len(events) != 1 || events[0].State != "firing" {
		t.Fatalf("events = %+v", events)
	}

	// Pending that un-holds resets silently.
	st2, e2 := engineOver(t, "hot: rate(v, 3s) > 0 for 5s", []int64{0, 5})
	e2.AddSink(FuncSink(func(ev Event) { t.Fatalf("unexpected event") }))
	e2.Evaluate(t0.Add(1 * time.Second)) // true → pending
	_ = st2
	e2.Evaluate(t0.Add(10 * time.Second)) // window empty → false → back to inactive
	if s := e2.Statuses(); s[0].State != "inactive" || s[0].Fired != 0 {
		t.Fatalf("status = %+v", s[0])
	}
}

func TestMissingSeriesIsFalse(t *testing.T) {
	_, e := engineOver(t, "ghost: rate(nope, 10s) > 0\nneg[info]: !(rate(nope, 10s) > 0)", nil)
	e.Evaluate(t0)
	s := e.Statuses()
	if s[0].State != "inactive" {
		t.Fatalf("missing-series rule state = %v, want inactive", s[0].State)
	}
	// Negation of a missing-data comparison is true — rules can alert on
	// absent telemetry explicitly.
	if s[1].State != "firing" {
		t.Fatalf("negated rule state = %v, want firing", s[1].State)
	}
}

func TestEngineInstrument(t *testing.T) {
	_, e := engineOver(t, "hot: rate(v, 60s) > 0", []int64{0, 5})
	reg := obs.New()
	e.Instrument(reg)
	e.Evaluate(t0.Add(time.Second))
	snap := reg.Snapshot()
	if snap.Counters["alert.evals"] != 1 || snap.Counters["alert.fired"] != 1 {
		t.Fatalf("counters = %v", snap.Counters)
	}
	if snap.Gauges["alert.firing"] != 1 {
		t.Fatalf("alert.firing = %d, want 1", snap.Gauges["alert.firing"])
	}
}

func TestEngineHistoryBounded(t *testing.T) {
	st := tsdb.NewStore(tsdb.Options{})
	rs, err := ParseRules("flip: v > 0")
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(st, rs)
	// Flip the gauge each tick: every evaluation transitions.
	for i := 0; i < 2*historyCap; i++ {
		now := t0.Add(time.Duration(i) * time.Second)
		st.Append("v", tsdb.KindGauge, now, int64(i%2))
		e.Evaluate(now)
	}
	h := e.History()
	if len(h) != historyCap {
		t.Fatalf("history length %d, want %d", len(h), historyCap)
	}
	for i := 1; i < len(h); i++ {
		if h[i].AtNS < h[i-1].AtNS {
			t.Fatal("history out of order")
		}
	}
}

func TestNilEngineSafe(t *testing.T) {
	var e *Engine
	e.Evaluate(t0)
	if e.Statuses() != nil || e.History() != nil || e.FiredCount("x") != 0 {
		t.Fatal("nil engine leaked state")
	}
}

func TestLogSink(t *testing.T) {
	var buf bytes.Buffer
	s := &LogSink{Log: obs.NewLogger(&buf, slog.LevelDebug)}
	s.Emit(Event{Rule: "hot", Severity: "critical", State: "firing", Expr: "x > 1", AtNS: 42})
	s.Emit(Event{Rule: "meh", Severity: "info", State: "resolved", Expr: "y > 1", AtNS: 43})
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d lines", len(lines))
	}
	var rec map[string]any
	if err := json.Unmarshal([]byte(lines[0]), &rec); err != nil {
		t.Fatal(err)
	}
	if rec["level"] != "error" || rec["event"] != "alert" || rec["rule"] != "hot" || rec["state"] != "firing" {
		t.Fatalf("line 0 = %v", rec)
	}
	if err := json.Unmarshal([]byte(lines[1]), &rec); err != nil {
		t.Fatal(err)
	}
	if rec["level"] != "info" || rec["severity"] != "info" {
		t.Fatalf("line 1 = %v", rec)
	}
	// Nil logger: no panic, no output.
	(&LogSink{}).Emit(Event{Rule: "x"})
}

func TestExpvarSink(t *testing.T) {
	s := NewExpvarSink("causet.alerts.test")
	s.Emit(Event{Rule: "hot", Severity: "warn", State: "firing", AtNS: 1})
	s.Emit(Event{Rule: "hot", Severity: "warn", State: "resolved", AtNS: 2})
	// Same name again must not panic (expvar.Publish would).
	s2 := NewExpvarSink("causet.alerts.test")
	s2.Emit(Event{Rule: "cold", Severity: "info", State: "firing", AtNS: 3})
	got := s.m.Get("hot")
	if got == nil {
		t.Fatal("rule entry missing from expvar map")
	}
	var ev Event
	if err := json.Unmarshal([]byte(got.(*expvar.String).Value()), &ev); err != nil {
		t.Fatal(err)
	}
	if ev.State != "resolved" || ev.AtNS != 2 {
		t.Fatalf("expvar holds %+v, want the latest transition", ev)
	}
	if s.m.Get("cold") == nil {
		t.Fatal("second sink did not share the published map")
	}
}

func TestWebhookSink(t *testing.T) {
	var hits atomic.Int64
	var lastBody atomic.Value
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var ev Event
		if err := json.NewDecoder(r.Body).Decode(&ev); err == nil {
			lastBody.Store(ev)
		}
		hits.Add(1)
	}))
	defer srv.Close()
	s := &WebhookSink{URL: srv.URL}
	s.Emit(Event{Rule: "hot", State: "firing", AtNS: 7})
	s.Wait()
	if hits.Load() != 1 || s.Failed() != 0 {
		t.Fatalf("hits=%d failed=%d", hits.Load(), s.Failed())
	}
	if ev, _ := lastBody.Load().(Event); ev.Rule != "hot" || ev.AtNS != 7 {
		t.Fatalf("delivered %+v", lastBody.Load())
	}
	// A failing endpoint counts, does not block.
	bad := &WebhookSink{URL: "http://127.0.0.1:1/nope", Client: &http.Client{Timeout: 200 * time.Millisecond}}
	bad.Emit(Event{Rule: "x"})
	bad.Wait()
	if bad.Failed() != 1 {
		t.Fatalf("Failed = %d, want 1", bad.Failed())
	}
}
