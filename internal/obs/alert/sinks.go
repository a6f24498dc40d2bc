package alert

import (
	"bytes"
	"context"
	"encoding/json"
	"expvar"
	"log/slog"
	"net/http"
	"sync"
	"time"
)

// LogSink writes transitions to a structured logger as "alert" events,
// mapping severity to the log level (info→Info, warn→Warn,
// critical→Error). A nil logger makes the sink a no-op.
type LogSink struct {
	Log *slog.Logger
}

// Emit implements Sink.
func (s *LogSink) Emit(ev Event) {
	if s.Log == nil {
		return
	}
	lvl := slog.LevelWarn
	switch ev.Severity {
	case "critical":
		lvl = slog.LevelError
	case "info":
		lvl = slog.LevelInfo
	}
	s.Log.LogAttrs(context.TODO(), lvl, "alert",
		slog.String("rule", ev.Rule),
		slog.String("severity", ev.Severity),
		slog.String("state", ev.State),
		slog.String("expr", ev.Expr),
		slog.Int64("at_ns", ev.AtNS))
}

// ExpvarSink publishes the latest transition per rule under one expvar
// name, so `GET /debug/vars` shows alert state next to the runtime's
// metrics. expvar.Publish panics on duplicate names, so the sink reuses an
// existing map when the process builds a second engine (tests, restarts).
type ExpvarSink struct {
	m *expvar.Map
}

var expvarMu sync.Mutex

// NewExpvarSink publishes (or re-binds) the named expvar map.
func NewExpvarSink(name string) *ExpvarSink {
	expvarMu.Lock()
	defer expvarMu.Unlock()
	if v := expvar.Get(name); v != nil {
		if m, ok := v.(*expvar.Map); ok {
			return &ExpvarSink{m: m}
		}
		return &ExpvarSink{m: new(expvar.Map).Init()} // name taken by another type: detached map
	}
	m := new(expvar.Map).Init()
	expvar.Publish(name, m)
	return &ExpvarSink{m: m}
}

// Emit implements Sink.
func (s *ExpvarSink) Emit(ev Event) {
	b, err := json.Marshal(ev)
	if err != nil {
		return
	}
	var sv expvar.String
	sv.Set(string(b))
	s.m.Set(ev.Rule, &sv)
}

// WebhookSink POSTs each transition as a JSON body to a URL. Delivery is
// asynchronous (Emit is called under the engine lock) and best-effort:
// failures count, they do not block or retry. Wait flushes in-flight posts
// — call it before process exit.
type WebhookSink struct {
	URL    string
	Client *http.Client // default: 5s-timeout client

	mu     sync.Mutex
	wg     sync.WaitGroup
	failed int64
}

// Emit implements Sink.
func (s *WebhookSink) Emit(ev Event) {
	body, err := json.Marshal(ev)
	if err != nil {
		return
	}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		client := s.Client
		if client == nil {
			client = &http.Client{Timeout: 5 * time.Second}
		}
		resp, err := client.Post(s.URL, "application/json", bytes.NewReader(body))
		if err != nil {
			s.mu.Lock()
			s.failed++
			s.mu.Unlock()
			return
		}
		resp.Body.Close()
		if resp.StatusCode >= 300 {
			s.mu.Lock()
			s.failed++
			s.mu.Unlock()
		}
	}()
}

// Wait blocks until queued deliveries finish.
func (s *WebhookSink) Wait() { s.wg.Wait() }

// Failed reports how many deliveries failed.
func (s *WebhookSink) Failed() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.failed
}

// FuncSink adapts a function to the Sink interface, for tests and
// embedders.
type FuncSink func(ev Event)

// Emit implements Sink.
func (f FuncSink) Emit(ev Event) { f(ev) }
