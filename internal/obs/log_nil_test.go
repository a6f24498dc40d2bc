package obs_test

import (
	"testing"

	"causet/internal/monitor"
	"causet/internal/obs/alert"
	"causet/internal/online"
	"causet/internal/runtime"
)

// TestLoggerNilSafety: a nil *slog.Logger means logging is off, and every
// holder owns that contract. Each case attaches no logger and drives the
// holder's logging paths; none may panic.
func TestLoggerNilSafety(t *testing.T) {
	for _, tc := range []struct {
		name string
		run  func(t *testing.T)
	}{
		{"online.Monitor", func(t *testing.T) {
			s := online.NewStream(2)
			m := online.NewMonitor(s)
			m.SetLogger(nil)
			if err := m.SetRetention(online.RetentionPolicy{MaxEvents: 2, Every: 1, AbandonAfter: 2}); err != nil {
				t.Fatal(err)
			}
			if err := m.AddCondition("ordered", "R1(A, B)"); err != nil {
				t.Fatal(err)
			}
			if err := m.AddCondition("stuck", "R1(A, G)"); err != nil {
				t.Fatal(err)
			}
			a, _ := s.Send(0)
			b, _ := s.Recv(1, a)
			g, _ := s.Local(0)
			for _, step := range []error{
				m.Observe("A", a), m.Complete("A"), m.Observe("G", g),
				m.Observe("B", b), m.Complete("B"),
			} {
				if step != nil {
					t.Fatal(step)
				}
			}
			for i := 0; i < 4; i++ { // idle events abandon G, failing "stuck"
				e, _ := s.Local(1)
				if err := m.Observe("B2", e); err != nil {
					t.Fatal(err)
				}
			}
			got := map[string]monitor.State{}
			for _, r := range m.Poll() {
				got[r.Name] = r.State
			}
			if got["ordered"] != monitor.Holds || got["stuck"] != monitor.Failed {
				t.Fatalf("verdicts %v; want ordered holds and stuck failed by abandonment", got)
			}
		}},
		{"runtime.System", func(t *testing.T) {
			sys := runtime.NewSystem(2, 4)
			sys.SetLogger(nil)
			sys.Run(func(nd *runtime.Node) {
				defer nd.Span("proto", "ping").End()
				if nd.ID() == 0 {
					nd.Send(1, "ping")
					nd.Internal("sent")
				} else {
					nd.Recv()
					nd.TryRecv()
				}
			})
		}},
		{"alert.LogSink", func(t *testing.T) {
			for _, sev := range []string{"info", "warn", "critical"} {
				(&alert.LogSink{}).Emit(alert.Event{Rule: "r", Severity: sev, State: "firing"})
			}
		}},
	} {
		t.Run(tc.name, tc.run)
	}
}
