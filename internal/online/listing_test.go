package online

import (
	"reflect"
	"testing"

	"causet/internal/monitor"
	"causet/internal/poset"
)

// listingFixture builds a two-process stream with one single-event interval
// per name, observed but not complete, so a test decides when each
// completes.
func listingFixture(t *testing.T, names ...string) *Monitor {
	t.Helper()
	s := NewStream(2)
	m := NewMonitor(s)
	var last poset.EventID
	for i, name := range names {
		var e poset.EventID
		var err error
		if i == 0 {
			e, err = s.Send(0)
		} else {
			e, err = s.Recv(i%2, last)
		}
		if err != nil {
			t.Fatal(err)
		}
		last = e
		if err := m.Observe(name, e); err != nil {
			t.Fatal(err)
		}
	}
	return m
}

func mustComplete(t *testing.T, m *Monitor, names ...string) {
	t.Helper()
	for _, name := range names {
		if err := m.Complete(name); err != nil {
			t.Fatal(err)
		}
	}
}

func mustAdd(t *testing.T, m *Monitor, name, src string) {
	t.Helper()
	if err := m.AddCondition(name, src); err != nil {
		t.Fatal(err)
	}
}

// frozen pairs a Check result with a private copy taken when it was
// returned, so a test can assert the monitor never wrote into it.
type frozen struct {
	got, want []monitor.Result
}

func freeze(rs []monitor.Result) frozen {
	return frozen{got: rs, want: append([]monitor.Result(nil), rs...)}
}

func (f frozen) assertUnchanged(t *testing.T, after string) {
	t.Helper()
	if !reflect.DeepEqual(f.got, f.want) {
		t.Errorf("Check result changed after %s:\n got %s\nwant %s", after, renderResults(f.got), renderResults(f.want))
	}
}

// TestCheckSnapshotSurvivesSettlementAndAdd pins the copy-on-write contract:
// a slice returned by Check is never written by later settlements or by
// AddCondition, while each new Check sees the current verdicts in
// registration order.
func TestCheckSnapshotSurvivesSettlementAndAdd(t *testing.T) {
	m := listingFixture(t, "A", "B", "C", "D")
	mustAdd(t, m, "ab", "R1(A, B)")
	mustAdd(t, m, "cd", "R1(C, D)")

	s0 := freeze(m.Check())
	if got := renderResults(s0.got); got != "ab=pending;cd=pending;" {
		t.Fatalf("first Check = %s", got)
	}

	mustComplete(t, m, "A", "B")
	s1 := freeze(m.Check())
	s0.assertUnchanged(t, "a settlement")
	if got := renderResults(s1.got); got != "ab=holds;cd=pending;" {
		t.Fatalf("Check after A, B complete = %s", got)
	}

	mustAdd(t, m, "ba", "R1(B, A)")
	s0.assertUnchanged(t, "AddCondition")
	s1.assertUnchanged(t, "AddCondition")
	s2 := freeze(m.Check())
	if got := renderResults(s2.got); got != "ab=holds;cd=pending;ba=violated;" {
		t.Fatalf("Check after AddCondition = %s", got)
	}

	mustComplete(t, m, "C", "D")
	s3 := m.Check()
	for _, f := range []frozen{s0, s1, s2} {
		f.assertUnchanged(t, "the last settlement")
	}
	if got := renderResults(s3); got != "ab=holds;cd=holds;ba=violated;" {
		t.Fatalf("final Check = %s", got)
	}
}

// TestCheckSnapshotSurvivesDropSettled covers the other writer of the
// listing: a DropSettled appraisal compacts it, and must do so on a copy
// when Check has handed it out.
func TestCheckSnapshotSurvivesDropSettled(t *testing.T) {
	m := listingFixture(t, "A", "B", "C", "D")
	if err := m.SetRetention(RetentionPolicy{MaxEvents: 2, DropSettled: true}); err != nil {
		t.Fatal(err)
	}
	mustAdd(t, m, "ab", "R1(A, B)")
	mustAdd(t, m, "cd", "R1(C, D)")
	mustAdd(t, m, "ba", "R1(B, A)")
	mustComplete(t, m, "A", "B")
	before := freeze(m.Check())
	if got := renderResults(before.got); got != "ab=holds;cd=pending;ba=violated;" {
		t.Fatalf("Check before the appraisal = %s", got)
	}

	// Age the two settled conditions out of the window.
	for i := 0; i < 4; i++ {
		if _, err := m.stream.Local(i % 2); err != nil {
			t.Fatal(err)
		}
	}
	m.CompactNow()
	before.assertUnchanged(t, "a DropSettled appraisal")
	after := freeze(m.Check())
	if got := renderResults(after.got); got != "cd=pending;" {
		t.Fatalf("Check after the appraisal = %s; want only the pending condition", got)
	}

	// The compacted listing stays writable at the renumbered position.
	mustComplete(t, m, "C", "D")
	if got := renderResults(m.Check()); got != "cd=holds;" {
		t.Fatalf("Check after C, D complete = %s", got)
	}
	before.assertUnchanged(t, "a settlement after compaction")
	after.assertUnchanged(t, "a settlement after compaction")
}

// TestCheckAppendDoesNotLeak: the result's cap equals its len, so a
// caller's append copies instead of sharing the monitor's spare capacity,
// where the next AddCondition would clobber it.
func TestCheckAppendDoesNotLeak(t *testing.T) {
	m := listingFixture(t, "A", "B")
	for _, name := range []string{"ab", "ba", "aa"} {
		mustAdd(t, m, name, "R1(A, B)")
	}
	out := m.Check()
	if len(out) != cap(out) {
		t.Fatalf("Check result len %d, cap %d; want cap == len", len(out), cap(out))
	}
	grown := freeze(append(out, monitor.Result{Name: "intruder", State: monitor.Holds}))
	mustAdd(t, m, "bb", "R1(B, A)")
	grown.assertUnchanged(t, "AddCondition")
	if got := renderResults(m.Check()); got != "ab=pending;ba=pending;aa=pending;bb=pending;" {
		t.Fatalf("Check after a caller append = %s", got)
	}
}

// TestIdleChecksShareListing: back-to-back Checks with nothing to settle
// return equal listings, and the second reuses the first's storage — the
// handout copies nothing.
func TestIdleChecksShareListing(t *testing.T) {
	m := listingFixture(t, "A", "B", "C")
	mustAdd(t, m, "ab", "R1(A, B)")
	mustAdd(t, m, "bc", "R1(B, C)")
	mustComplete(t, m, "A", "B")
	first := m.Check()
	second := m.Check()
	if !reflect.DeepEqual(first, second) {
		t.Fatalf("idle Checks differ:\n%s\n%s", renderResults(first), renderResults(second))
	}
	if &first[0] != &second[0] {
		t.Errorf("an idle Check copied the listing")
	}
}
