package bench

import (
	"bytes"
	"testing"

	"causet/internal/core"
	"causet/internal/poset"
	"causet/internal/sim"
	"causet/internal/trace"
)

// setupSink keeps BenchmarkOfflineSetup's result alive, so the compiler
// cannot drop the measured calls.
var setupSink *core.Analysis

// BenchmarkOfflineSetup is the one-time setup of Key Idea 1 on the
// relcheck -matrix path: decode a 32-process × 320-round gossip trace
// (20,480 events) from canonical JSON, rebuild its execution and build the
// timestamp structure. With -benchmem, allocs/op stays a few hundred
// however large the trace, so a per-event allocation in any of the three
// stages shows as a jump of tens of thousands.
func BenchmarkOfflineSetup(b *testing.B) {
	gen := sim.MustGenerate(sim.Config{Pattern: sim.Gossip, Procs: 32, Rounds: 320, Seed: 3})
	named := make(map[string][]poset.EventID, len(gen.Phases))
	for _, ph := range gen.Phases {
		named[ph.Name] = ph.Events
	}
	var buf bytes.Buffer
	if err := trace.New(gen.Exec, named).WriteJSON(&buf); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f, err := trace.ReadJSON(bytes.NewReader(data))
		if err != nil {
			b.Fatal(err)
		}
		ex, err := f.Execution()
		if err != nil {
			b.Fatal(err)
		}
		setupSink = core.NewAnalysis(ex)
	}
}
