package trace

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"

	"causet/internal/poset"
	"causet/internal/rt"
	"causet/internal/sim"
)

// jsonBytes / gobBytes render a file through one codec.
func jsonBytes(t *testing.T, f *File) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := f.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func gobBytes(t *testing.T, f *File) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := f.WriteGob(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestCrossCodecByteStable pins the property behind every determinism claim
// in this repo: encoding is a pure function of the trace content. For
// canonical files (fresh from New) the full codec cycles JSON→gob→JSON and
// gob→JSON→gob reproduce their input byte for byte, across every generator
// pattern and with timing attached.
func TestCrossCodecByteStable(t *testing.T) {
	for _, pat := range sim.Patterns() {
		res, err := sim.Generate(sim.Config{Pattern: pat, Procs: 4, Rounds: 3, Events: 24, Seed: 9})
		if err != nil {
			t.Fatalf("%v: %v", pat, err)
		}
		named := map[string][]poset.EventID{}
		for _, ph := range res.Phases {
			named[ph.Name] = ph.Events
		}
		f := New(res.Exec, named)
		if pat == sim.Ring { // one variant with timing, to cover that field too
			f.SetTiming(rt.Synthesize(res.Exec, rt.SynthesizeConfig{Seed: 5}))
		}

		j1 := jsonBytes(t, f)
		viaGob, err := ReadGob(bytes.NewReader(gobBytes(t, f)))
		if err != nil {
			t.Fatalf("%v: gob decode: %v", pat, err)
		}
		j2 := jsonBytes(t, viaGob)
		if !bytes.Equal(j1, j2) {
			t.Errorf("%v: JSON differs after a gob round trip:\n%s\nvs\n%s", pat, j1, j2)
		}

		g1 := gobBytes(t, f)
		viaJSON, err := ReadJSON(bytes.NewReader(j1))
		if err != nil {
			t.Fatalf("%v: JSON decode: %v", pat, err)
		}
		g2 := gobBytes(t, viaJSON)
		if !bytes.Equal(g1, g2) {
			t.Errorf("%v: gob differs after a JSON round trip", pat)
		}
	}
}

// TestQuickCodecRoundTrip drives the same property over random generator
// seeds and shapes.
func TestQuickCodecRoundTrip(t *testing.T) {
	prop := func(seed int64, procs, rounds uint8) bool {
		cfg := sim.Config{
			Pattern: sim.Ring,
			Procs:   2 + int(procs%5),
			Rounds:  1 + int(rounds%4),
			Seed:    seed,
		}
		res, err := sim.Generate(cfg)
		if err != nil {
			return false
		}
		named := map[string][]poset.EventID{}
		for _, ph := range res.Phases {
			named[ph.Name] = ph.Events
		}
		f := New(res.Exec, named)
		j1 := jsonBytes(t, f)
		viaGob, err := ReadGob(bytes.NewReader(gobBytes(t, f)))
		if err != nil {
			return false
		}
		return bytes.Equal(j1, jsonBytes(t, viaGob))
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestOversizedCountsRejected pins the MaxEvents guard FuzzTraceDecode
// originally flushed out: a corrupt file claiming a billion events used to
// stall Execution for minutes materializing vector clocks before failing. It
// must now be rejected up front, fast, with ErrTooLarge.
func TestOversizedCountsRejected(t *testing.T) {
	for _, counts := range [][]int{
		{1000000000},
		{MaxEvents + 1},
		{MaxEvents, 1},
	} {
		f := &File{Version: FormatVersion, Counts: counts}
		if _, err := f.Execution(); !errors.Is(err, ErrTooLarge) {
			t.Errorf("counts %v: err = %v, want ErrTooLarge", counts, err)
		}
	}
	// The bound is on the total claim, not the process count.
	ok := &File{Version: FormatVersion, Counts: []int{2, 3, 0}}
	if _, err := ok.Execution(); err != nil {
		t.Errorf("small trace rejected: %v", err)
	}
}

// FuzzTraceDecode throws arbitrary bytes at both decoders: they must reject
// with an error or accept — never panic — and whatever they accept must
// survive Execution() plus a re-encode/re-decode cycle without blowing up.
// It is also the differential gate of the JSON scanner: ReadJSON must accept
// exactly what encoding/json accepts and decode it to a deeply equal File.
// Seeds include valid files from both codecs, targeted corruptions and one
// input per scanner fallback trigger (scanCases).
func FuzzTraceDecode(f *testing.F) {
	res := sim.MustGenerate(sim.Config{Pattern: sim.Ring, Procs: 3, Rounds: 2, Seed: 1})
	named := map[string][]poset.EventID{}
	for _, ph := range res.Phases {
		named[ph.Name] = ph.Events
	}
	file := New(res.Exec, named)
	var jbuf, gbuf bytes.Buffer
	if err := file.WriteJSON(&jbuf); err != nil {
		f.Fatal(err)
	}
	if err := file.WriteGob(&gbuf); err != nil {
		f.Fatal(err)
	}
	valid := [][]byte{jbuf.Bytes(), gbuf.Bytes()}
	for _, v := range valid {
		f.Add(v)
		truncated := v[:len(v)/2]
		f.Add(truncated)
		flipped := append([]byte(nil), v...)
		flipped[len(flipped)/3] ^= 0x40
		f.Add(flipped)
	}
	f.Add([]byte(`{"version":1,"counts":[-1]}`))
	f.Add([]byte(`{"version":1,"counts":[1000000000]}`))
	f.Add([]byte(`{"version":99}`))
	f.Add([]byte(`{"version":1,"counts":[2,2],"messages":[{"from":{"proc":0,"index":2},"to":{"proc":1,"index":1}},{"from":{"proc":1,"index":2},"to":{"proc":0,"index":1}}]}`))
	f.Add([]byte{})
	for _, c := range scanCases {
		f.Add([]byte(c.data))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		assertDecodersAgree(t, data)
		for _, decode := range []func() (*File, error){
			func() (*File, error) { return ReadJSON(bytes.NewReader(data)) },
			func() (*File, error) { return ReadGob(bytes.NewReader(data)) },
		} {
			tf, err := decode()
			if err != nil {
				continue // rejection is the expected outcome for garbage
			}
			// Keep throughput: a decoded claim can be legal (under MaxEvents)
			// yet cost ~1s in Build; don't let the fuzzer camp there.
			total := 0
			for _, c := range tf.Counts {
				if c > 0 {
					total += c
				}
			}
			if total > 1<<16 {
				continue
			}
			// Accepted: every downstream consumer must be panic-free.
			ex, err := tf.Execution()
			if err != nil {
				continue // structurally invalid content, caught with an error
			}
			tf.IntervalNames()
			if _, err := tf.AllIntervals(ex); err != nil {
				continue
			}
			if _, err := tf.Timing(ex); err != nil {
				continue
			}
			// Re-encode and re-decode: the codec must accept its own output.
			var buf bytes.Buffer
			if err := tf.WriteJSON(&buf); err != nil {
				t.Fatalf("re-encode of accepted input failed: %v", err)
			}
			if _, err := ReadJSON(bytes.NewReader(buf.Bytes())); err != nil {
				t.Fatalf("re-decode of re-encoded input failed: %v", err)
			}
		}
	})
}
