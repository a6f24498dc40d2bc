//go:build !race

package trace

import (
	"bytes"
	"testing"

	"causet/internal/core"
	"causet/internal/poset"
	"causet/internal/sim"
	"causet/internal/vclock"
)

// setupAllocs measures the allocations per call of the four offline setup
// stages on a gossip trace of 8 processes and the given rounds.
func setupAllocs(t *testing.T, rounds int) (events int, readJSON, build, clocks, analysis float64) {
	t.Helper()
	res := sim.MustGenerate(sim.Config{Pattern: sim.Gossip, Procs: 8, Rounds: rounds, Seed: 1})
	named := map[string][]poset.EventID{}
	for _, ph := range res.Phases {
		named[ph.Name] = ph.Events
	}
	var buf bytes.Buffer
	if err := New(res.Exec, named).WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	if _, ok := scanJSON(data); !ok {
		t.Fatal("canonical input fell back to encoding/json")
	}
	b := poset.NewBuilder(res.Exec.NumProcs())
	for p := 0; p < res.Exec.NumProcs(); p++ {
		b.AppendN(p, res.Exec.NumReal(p))
	}
	for _, m := range res.Exec.Messages() {
		if err := b.Message(m.From, m.To); err != nil {
			t.Fatal(err)
		}
	}
	ex := b.MustBuild()
	readJSON = testing.AllocsPerRun(20, func() {
		if _, err := ReadJSON(bytes.NewReader(data)); err != nil {
			t.Fatal(err)
		}
	})
	build = testing.AllocsPerRun(20, func() {
		if _, err := b.Build(); err != nil {
			t.Fatal(err)
		}
	})
	clocks = testing.AllocsPerRun(20, func() { vclock.New(ex) })
	analysis = testing.AllocsPerRun(20, func() { core.NewAnalysis(ex) })
	return ex.NumEvents(), readJSON, build, clocks, analysis
}

// TestSetupAllocsIndependentOfEvents is the deterministic allocation gate
// for offline setup. Builder.Build (adjacency, in-degrees, order),
// vclock.New (one arena per direction) and core.NewAnalysis (its clocks plus
// the Analysis; the cut cache starts empty) make a fixed number of
// allocations whatever the event count; ReadJSON on canonical input grows only by the
// geometric regrowth of its few append-built slices (messages, intervals,
// the name, event and span arenas), never per element: 8x the events adds
// 448 intervals and 7,168 messages, but under 32 allocations.
func TestSetupAllocsIndependentOfEvents(t *testing.T) {
	const (
		buildAllocs    = 11               // Execution, 2 copies, adjacency (5), in-degrees, order
		clocksAllocs   = 7                // Clocks, and per direction: table, rows, arena
		analysisAllocs = clocksAllocs + 1 // vclock.New and the Analysis
		readJSONMax    = 60               // at 8x64: buffer, File, and the slices' regrowth
		readJSONGrow   = 32               // from 8x64 to 8x512 rounds
	)
	smallE, smallRead, smallBuild, smallClocks, smallAnalysis := setupAllocs(t, 64)
	largeE, largeRead, largeBuild, largeClocks, largeAnalysis := setupAllocs(t, 512)
	t.Logf("|E| %d -> %d: ReadJSON %.0f -> %.0f, Build %.0f -> %.0f, vclock.New %.0f -> %.0f, NewAnalysis %.0f -> %.0f",
		smallE, largeE, smallRead, largeRead, smallBuild, largeBuild, smallClocks, largeClocks,
		smallAnalysis, largeAnalysis)
	for _, got := range []float64{smallBuild, largeBuild} {
		if got > buildAllocs {
			t.Errorf("Builder.Build: %.0f allocs, want <= %d at any size", got, buildAllocs)
		}
	}
	for _, got := range []float64{smallClocks, largeClocks} {
		if got > clocksAllocs {
			t.Errorf("vclock.New: %.0f allocs, want <= %d at any size", got, clocksAllocs)
		}
	}
	for _, got := range []float64{smallAnalysis, largeAnalysis} {
		if got > analysisAllocs {
			t.Errorf("core.NewAnalysis: %.0f allocs, want <= %d at any size", got, analysisAllocs)
		}
	}
	if smallRead > readJSONMax {
		t.Errorf("ReadJSON at |E| %d: %.0f allocs, want <= %d", smallE, smallRead, readJSONMax)
	}
	if largeRead-smallRead > readJSONGrow {
		t.Errorf("ReadJSON grew by %.0f allocs for %dx the events, want <= %d",
			largeRead-smallRead, largeE/smallE, readJSONGrow)
	}
}
