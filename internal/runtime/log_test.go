package runtime

import (
	"bufio"
	"bytes"
	"encoding/json"
	"log/slog"
	"sync"
	"testing"

	"causet/internal/obs"
)

// syncBuffer serializes concurrent writes from node goroutines.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

// TestSystemLogging: an instrumented, logged ping-pong run emits one
// structured send/recv/internal event per recorded poset event and feeds
// the recv-wait sliding window.
func TestSystemLogging(t *testing.T) {
	var buf syncBuffer
	reg := obs.New()
	s := NewSystem(2, 4)
	s.Instrument(reg, nil)
	s.SetLogger(obs.NewLogger(&buf, slog.LevelDebug))

	const pings = 3
	s.Run(func(nd *Node) {
		defer nd.Span("proto", "ping-pong").End()
		if nd.ID() == 0 {
			for i := 0; i < pings; i++ {
				nd.Send(1, i)
				nd.Recv()
			}
			nd.Internal("done")
		} else {
			for i := 0; i < pings; i++ {
				env, _ := nd.Recv()
				nd.Send(0, env.Payload)
			}
		}
	})

	counts := map[string]int{}
	buf.mu.Lock()
	data := append([]byte(nil), buf.buf.Bytes()...)
	buf.mu.Unlock()
	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		var line struct {
			Event string  `json:"event"`
			Node  *int    `json:"node"`
			Level string  `json:"level"`
			Wait  float64 `json:"wait_ns"`
		}
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("log line not valid JSON: %v\n%s", err, sc.Text())
		}
		if line.Node == nil {
			t.Errorf("event %q lacks node field: %s", line.Event, sc.Text())
		}
		counts[line.Event]++
	}
	if counts["send"] != 2*pings {
		t.Errorf("send events = %d, want %d", counts["send"], 2*pings)
	}
	if counts["recv"] != 2*pings {
		t.Errorf("recv events = %d, want %d", counts["recv"], 2*pings)
	}
	if counts["internal"] != 1 || counts["round"] != 2 {
		t.Errorf("internal/round events = %d/%d, want 1/2", counts["internal"], counts["round"])
	}

	snap := reg.Snapshot()
	if w := snap.Windows["runtime.recv_wait_ns"]; w.Count != 2*pings {
		t.Errorf("recv_wait window count = %d, want %d", w.Count, 2*pings)
	}
	if w := snap.Windows["runtime.event_window"]; w.Count != snap.Counters["runtime.events"] {
		t.Errorf("event window count %d != events counter %d", w.Count, snap.Counters["runtime.events"])
	}
}

// TestSystemUnloggedNoOp: a system without SetLogger/Instrument takes the
// nil no-op path everywhere.
func TestSystemUnloggedNoOp(t *testing.T) {
	s := NewSystem(2, 4)
	s.Run(func(nd *Node) {
		if nd.ID() == 0 {
			nd.Send(1, "x")
		} else {
			nd.Recv()
		}
	})
	if _, _, err := s.Trace(); err != nil {
		t.Fatal(err)
	}
}
