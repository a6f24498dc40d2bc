package online

import (
	"strconv"
	"testing"

	"causet/internal/poset"
)

// liveIntervalState counts the per-name interval state a monitor holds: one
// record per live interval name, one entry per waiting condition, and the
// ready queue.
func liveIntervalState(m *Monitor) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := len(m.ivs) + len(m.ready)
	for _, rec := range m.ivs {
		n += len(rec.waiting)
	}
	return n
}

// TestMonitorNoOrphanedRecords replays the three ways per-name state used to
// outlive its name: settlements stamping last use on a released name,
// abandonment leaving a settled condition on another interval's waiting
// list, and release keeping a poisoned interval's Define error. Each
// scenario retires every name it touches, so the live state afterwards must
// equal the live state before.
func TestMonitorNoOrphanedRecords(t *testing.T) {
	s := NewStream(1)
	m := NewMonitor(s)
	if err := m.SetRetention(RetentionPolicy{MaxEvents: 2, AbandonAfter: 2, Every: 1}); err != nil {
		t.Fatal(err)
	}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	advance := func() {
		for i := 0; i < 4; i++ {
			_, err := s.Local(0)
			must(err)
			m.Poll()
		}
	}

	t.Run("conditions on a released interval", func(t *testing.T) {
		e, err := s.Local(0)
		must(err)
		must(m.Observe("a", e))
		must(m.Complete("a"))
		advance()
		before := liveIntervalState(m)
		for i := 0; i < 100; i++ {
			must(m.AddCondition("c"+strconv.Itoa(i), "R1(a, a)"))
		}
		m.Poll()
		if after := liveIntervalState(m); after != before {
			t.Errorf("live interval state %d -> %d after 100 conditions on released a", before, after)
		}
	})

	t.Run("abandonment settles a waiter of another interval", func(t *testing.T) {
		before := liveIntervalState(m)
		must(m.Observe("stalled"))
		must(m.AddCondition("waits", "R1(stalled, future)"))
		advance()
		if st := m.RetentionStats(); st.Abandoned != 1 {
			t.Fatalf("Abandoned = %d; want 1", st.Abandoned)
		}
		if after := liveIntervalState(m); after != before {
			t.Errorf("live interval state %d -> %d after abandoning stalled", before, after)
		}
	})

	t.Run("release of a poisoned interval", func(t *testing.T) {
		before := liveIntervalState(m)
		must(m.Observe("bad", poset.EventID{Proc: 0, Pos: 1 << 20}))
		must(m.Complete("bad"))
		must(m.AddCondition("p", "R4(bad, bad)"))
		if res := m.Poll(); len(res) != 1 || res[0].Err == nil {
			t.Fatalf("poisoned condition settled %+v; want one failure", res)
		}
		advance()
		if st := m.RetentionStats(); st.Released != 2 {
			t.Fatalf("Released = %d; want 2 (a and bad)", st.Released)
		}
		if after := liveIntervalState(m); after != before {
			t.Errorf("live interval state %d -> %d after releasing poisoned bad", before, after)
		}
	})
}

// TestCompleteTwice pins the error for completing a complete interval.
func TestCompleteTwice(t *testing.T) {
	s := NewStream(1)
	m := NewMonitor(s)
	e, err := s.Local(0)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Observe("x", e); err != nil {
		t.Fatal(err)
	}
	if err := m.Complete("x"); err != nil {
		t.Fatal(err)
	}
	const want = `online: interval "x" is already complete`
	if err := m.Complete("x"); err == nil || err.Error() != want {
		t.Fatalf("second Complete = %v; want %q", err, want)
	}
}

// TestRetiredReferenceHoldsNothing checks that a condition settled Failed
// for naming a retired interval takes no hold on its other intervals: the
// pending condition's hold on "done" must survive it, so "done" is not
// released.
func TestRetiredReferenceHoldsNothing(t *testing.T) {
	s, m, _ := nameRulesFixture(t)
	if err := m.AddCondition("late", "R1(done, rel)"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if _, err := s.Local(0); err != nil {
			t.Fatal(err)
		}
		m.Poll()
	}
	if st := m.RetentionStats(); st.Released != 1 {
		t.Fatalf("Released = %d; want 1 (rel only: condition c still holds done)", st.Released)
	}
}
