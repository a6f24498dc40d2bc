package poset

import (
	"math/rand"
	"reflect"
	"testing"
)

// bruteAdjacency derives the message successors and predecessors of e from
// the message log, in log order, nil when there are none.
func bruteAdjacency(ex *Execution, e EventID) (succ, pred []EventID) {
	for _, m := range ex.Messages() {
		if m.From == e {
			succ = append(succ, m.To)
		}
		if m.To == e {
			pred = append(pred, m.From)
		}
	}
	return succ, pred
}

// adjacencyFixtures returns a Build result with fan-out and duplicate
// edges, a Build result of a random execution, and a compacted view.
func adjacencyFixtures(t *testing.T) map[string]*Execution {
	t.Helper()
	b := NewBuilder(3)
	s := b.Append(0)
	r1, r2 := b.Append(1), b.Append(2)
	for _, m := range []Message{{s, r1}, {s, r2}, {s, r1}} {
		if err := b.Message(m.From, m.To); err != nil {
			t.Fatal(err)
		}
	}
	b.AppendN(0, 2)
	fan := b.MustBuild()

	rng := rand.New(rand.NewSource(7))
	rb := NewBuilder(4)
	last := make([]EventID, 4)
	for i := 0; i < 200; i++ {
		p := rng.Intn(4)
		e := rb.Append(p)
		if q := rng.Intn(4); q != p && last[q].Pos > 0 && rng.Intn(2) == 0 {
			if err := rb.Message(last[q], e); err != nil {
				t.Fatal(err)
			}
		}
		last[p] = e
	}

	cb := chainBuilder(t, 4)
	if _, err := cb.CompactBelow([]int{4, 4, 2}); err != nil {
		t.Fatal(err)
	}
	compacted, err := cb.View()
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*Execution{"fan-out": fan, "random": rb.MustBuild(), "compacted view": compacted}
}

// TestAdjacencyRobustness pins the contract of MsgSuccessors and
// MsgPredecessors: nil, never a panic or an out-of-range read, for dummies,
// out-of-range and negative IDs and compacted events; for every retained
// real event exactly the edges of the message log, in log order.
func TestAdjacencyRobustness(t *testing.T) {
	for name, ex := range adjacencyFixtures(t) {
		t.Run(name, func(t *testing.T) {
			p := ex.NumProcs()
			none := []EventID{
				ex.Bottom(0), ex.Top(0), ex.Top(p - 1),
				{Proc: 0, Pos: ex.TopPos(0) + 1}, {Proc: 0, Pos: -1},
				{Proc: -1, Pos: 1}, {Proc: p, Pos: 1}, {Proc: 1 << 30, Pos: 1},
			}
			for q := 0; q < p; q++ {
				for pos := 1; pos <= ex.CompactedThrough(q); pos++ {
					none = append(none, EventID{Proc: q, Pos: pos})
				}
			}
			for _, e := range none {
				if got := ex.MsgSuccessors(e); got != nil {
					t.Errorf("MsgSuccessors(%v) = %v, want nil", e, got)
				}
				if got := ex.MsgPredecessors(e); got != nil {
					t.Errorf("MsgPredecessors(%v) = %v, want nil", e, got)
				}
			}
			for q := 0; q < p; q++ {
				for pos := ex.CompactedThrough(q) + 1; pos <= ex.NumReal(q); pos++ {
					e := EventID{Proc: q, Pos: pos}
					succ, pred := bruteAdjacency(ex, e)
					if got := ex.MsgSuccessors(e); !reflect.DeepEqual(got, succ) {
						t.Errorf("MsgSuccessors(%v) = %v, want %v", e, got, succ)
					}
					if got := ex.MsgPredecessors(e); !reflect.DeepEqual(got, pred) {
						t.Errorf("MsgPredecessors(%v) = %v, want %v", e, got, pred)
					}
				}
			}
		})
	}
}

// TestAdjacencySlicesAreClamped checks that appending to a returned
// adjacency slice cannot overwrite the next event's edges.
func TestAdjacencySlicesAreClamped(t *testing.T) {
	ex := adjacencyFixtures(t)["fan-out"]
	s := EventID{Proc: 0, Pos: 1}
	_ = append(ex.MsgSuccessors(s), EventID{Proc: 9, Pos: 9})
	_ = append(ex.MsgPredecessors(EventID{Proc: 1, Pos: 1}), EventID{Proc: 9, Pos: 9})
	if got := ex.MsgPredecessors(EventID{Proc: 2, Pos: 1}); len(got) != 1 || got[0] != s {
		t.Fatalf("MsgPredecessors(p2:1) = %v after appends, want [%v]", got, s)
	}
}

// TestLinearExtensionKeptByBuild checks that a Build result hands out the
// linear extension it computed while checking for cycles (the same slice on
// every call), and that it equals the order a view of the same builder
// computes on demand.
func TestLinearExtensionKeptByBuild(t *testing.T) {
	b := chainBuilder(t, 3)
	ex := b.MustBuild()
	first, again := ex.LinearExtension(), ex.LinearExtension()
	if len(first) == 0 || &first[0] != &again[0] {
		t.Fatal("Build result recomputed its linear extension")
	}
	view, err := b.View()
	if err != nil {
		t.Fatal(err)
	}
	if got := view.LinearExtension(); !reflect.DeepEqual(got, first) {
		t.Fatalf("view order %v differs from Build order %v", got, first)
	}
}
