package online

import (
	"testing"

	"causet/internal/poset"
)

// nameRulesFixture builds a retained monitor whose names cover every state
// the name rules distinguish: "done" is complete and held by the pending
// condition "c", which also references the never-observed "never"; "empty"
// is observed without events; "rel" was released after condition "d"
// settled, and "d" was then dropped; "gone" was abandoned. It returns the
// newest stream event, which no compaction has reached.
func nameRulesFixture(t *testing.T) (*Stream, *Monitor, poset.EventID) {
	t.Helper()
	s := NewStream(1)
	m := NewMonitor(s)
	if err := m.SetRetention(RetentionPolicy{MaxEvents: 2, AbandonAfter: 2, DropSettled: true, Every: 1}); err != nil {
		t.Fatal(err)
	}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	e, err := s.Local(0)
	must(err)
	must(m.Observe("rel", e))
	must(m.Complete("rel"))
	must(m.Observe("done", e))
	must(m.Complete("done"))
	must(m.Observe("gone"))
	must(m.AddCondition("d", "R4(rel, done)"))
	must(m.AddCondition("c", "R1(done, never)"))
	if got := m.Poll(); len(got) != 1 || got[0].Name != "d" {
		t.Fatalf("fixture settlements = %+v; want d alone", got)
	}
	for i := 0; i < 4; i++ {
		e, err = s.Local(0)
		must(err)
		m.Poll()
	}
	must(m.Observe("empty"))
	if st := m.RetentionStats(); st.Released != 1 || st.Abandoned != 1 {
		t.Fatalf("fixture RetentionStats = %+v; want one released and one abandoned interval", st)
	}
	for _, r := range m.Check() {
		if r.Name == "d" {
			t.Fatalf("fixture: condition d still listed after DropSettled")
		}
	}
	return s, m, e
}

// TestMonitorNameErrors pins the error text of every name rule: duplicate
// conditions (live and dropped), operations on complete, unobserved and
// empty intervals, and every operation on released and abandoned names.
// A condition that references a retired name is accepted and settles
// Failed, so its case checks the settlement error.
func TestMonitorNameErrors(t *testing.T) {
	settleErr := func(m *Monitor, name, src string) error {
		if err := m.AddCondition(name, src); err != nil {
			return err
		}
		for _, r := range m.Poll() {
			if r.Name == name {
				return r.Err
			}
		}
		return nil
	}
	strongest := func(x, y string) func(*Monitor, poset.EventID) error {
		return func(m *Monitor, _ poset.EventID) error {
			_, err := m.StrongestBetween(x, y)
			return err
		}
	}
	cases := []struct {
		name string
		op   func(m *Monitor, e poset.EventID) error
		want string
	}{
		{"duplicate live condition", func(m *Monitor, _ poset.EventID) error { return m.AddCondition("c", "R1(done, done)") },
			`online: condition "c" already defined`},
		{"duplicate dropped condition", func(m *Monitor, _ poset.EventID) error { return m.AddCondition("d", "R1(done, done)") },
			`online: condition "d" already defined`},
		{"observe complete", func(m *Monitor, e poset.EventID) error { return m.Observe("done", e) },
			`online: interval "done" is already complete`},
		{"complete referenced only", func(m *Monitor, _ poset.EventID) error { return m.Complete("never") },
			`online: interval "never" was never observed`},
		{"complete unknown", func(m *Monitor, _ poset.EventID) error { return m.Complete("ghost") },
			`online: interval "ghost" was never observed`},
		{"complete without events", func(m *Monitor, _ poset.EventID) error { return m.Complete("empty") },
			`online: interval "empty" has no events`},
		{"strongest of pending", strongest("done", "empty"),
			`online: interval "empty" is not complete`},

		{"observe released", func(m *Monitor, e poset.EventID) error { return m.Observe("rel", e) },
			`online: interval "rel" was released by retention`},
		{"complete released", func(m *Monitor, _ poset.EventID) error { return m.Complete("rel") },
			`online: interval "rel" was released by retention`},
		{"strongest released x", strongest("rel", "done"),
			`online: interval "rel" was released by retention`},
		{"strongest released y", strongest("done", "rel"),
			`online: interval "rel" was released by retention`},
		{"condition on released", func(m *Monitor, _ poset.EventID) error { return settleErr(m, "late", "R1(done, rel)") },
			`online: interval "rel" was released by retention`},

		{"observe abandoned", func(m *Monitor, e poset.EventID) error { return m.Observe("gone", e) },
			`online: interval "gone" was abandoned by retention`},
		{"complete abandoned", func(m *Monitor, _ poset.EventID) error { return m.Complete("gone") },
			`online: interval "gone" was abandoned by retention`},
		{"strongest abandoned x", strongest("gone", "done"),
			`online: interval "gone" was abandoned by retention`},
		{"strongest abandoned y", strongest("done", "gone"),
			`online: interval "gone" was abandoned by retention`},
		{"condition on abandoned", func(m *Monitor, _ poset.EventID) error { return settleErr(m, "late", "R1(gone, done)") },
			`online: interval "gone" was abandoned by retention`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, m, e := nameRulesFixture(t)
			err := tc.op(m, e)
			if err == nil || err.Error() != tc.want {
				t.Fatalf("error = %v; want %q", err, tc.want)
			}
		})
	}
}

// TestObserveAllocsUnlogged pins the unlogged, uninstrumented hot path:
// an Observe that adds no events must not allocate, neither for a small
// interval nor for one past 255 members (where boxing the size for a log
// field would allocate).
func TestObserveAllocsUnlogged(t *testing.T) {
	s := NewStream(1)
	m := NewMonitor(s)
	for name, size := range map[string]int{"small": 1, "large": 300} {
		for i := 0; i < size; i++ {
			e, err := s.Local(0)
			if err != nil {
				t.Fatal(err)
			}
			if err := m.Observe(name, e); err != nil {
				t.Fatal(err)
			}
		}
		if allocs := testing.AllocsPerRun(100, func() { _ = m.Observe(name) }); allocs != 0 {
			t.Errorf("Observe(%s) with %d members: %v allocs; want 0", name, size, allocs)
		}
	}
}
