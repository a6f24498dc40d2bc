package trace

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"causet/internal/poset"
	"causet/internal/rt"
	"causet/internal/sim"
)

// stdDecode is the reference decoder: encoding/json as ReadJSON used it
// before the scanner, and as its fallback still does.
func stdDecode(data []byte) (*File, error) {
	var f File
	if err := json.NewDecoder(bytes.NewReader(data)).Decode(&f); err != nil {
		return nil, err
	}
	return &f, nil
}

// assertDecodersAgree is the differential decode gate: ReadJSON accepts
// exactly what encoding/json accepts, and what it accepts is deeply equal
// to encoding/json's File, down to nil versus empty slices.
func assertDecodersAgree(t *testing.T, data []byte) {
	t.Helper()
	got, err := ReadJSON(bytes.NewReader(data))
	want, werr := stdDecode(data)
	switch {
	case (err == nil) != (werr == nil):
		t.Fatalf("ReadJSON err = %v, encoding/json err = %v\ninput: %q", err, werr, data)
	case err == nil && !reflect.DeepEqual(got, want):
		t.Fatalf("decoders disagree\nReadJSON:      %#v\nencoding/json: %#v\ninput: %q", got, want, data)
	}
}

// scanCase is one input that probes a boundary of the scanner's shape.
// scanned records whether the scanner decodes it itself (true) or leaves it
// to encoding/json (false); either way both decoders must agree.
type scanCase struct {
	name    string
	data    string
	scanned bool
}

// scanCases holds one input per fallback trigger plus the edge cases the
// scanner does accept. FuzzTraceDecode seeds its corpus with them.
var scanCases = []scanCase{
	{"escaped name", `{"version":1,"counts":[1],"intervals":[{"name":"a\u0062","events":[{"proc":0,"pos":1}]}]}`, false},
	{"escaped html", `{"version":1,"counts":[1],"intervals":[{"name":"\u003cx\u003e","events":[]}]}`, false},
	{"non-ASCII name", `{"version":1,"counts":[1],"intervals":[{"name":"runde-ü-π","events":[{"proc":0,"pos":1}]}]}`, true},
	{"invalid UTF-8 name", "{\"version\":1,\"counts\":[1],\"intervals\":[{\"name\":\"a\xffb\",\"events\":[]}]}", false},
	{"control byte in name", "{\"version\":1,\"intervals\":[{\"name\":\"a\tb\"}]}", false},
	{"Proc key case", `{"version":1,"counts":[2,2],"messages":[{"from":{"Proc":0,"pos":1},"to":{"proc":1,"pos":1}}]}`, false},
	{"duplicate key", `{"version":1,"counts":[2],"counts":[3]}`, false},
	{"duplicate nested key", `{"version":1,"counts":[2,2],"messages":[{"from":{"proc":0,"pos":1,"pos":2},"to":{"proc":1,"pos":1}}]}`, false},
	{"unknown key", `{"version":1,"counts":[1],"comment":"x"}`, false},
	{"null", `{"version":1,"counts":[1],"messages":null}`, false},
	{"null element", `{"version":1,"counts":[null,1]}`, false},
	{"fraction", `{"version":1.0,"counts":[1]}`, false},
	{"exponent", `{"version":1,"counts":[1e2]}`, false},
	{"leading zero", `{"version":1,"counts":[01]}`, false},
	{"20-digit integer", `{"version":1,"counts":[12345678901234567890]}`, false},
	{"19-digit integer", `{"version":1,"times_ns":[[1234567890123456789]]}`, false},
	{"trailing bytes", `{"version":1,"counts":[1]} trailing`, false},
	{"trailing comma", `{"version":1,"counts":[1,]}`, false},
	{"string number", `{"version":"1"}`, false},
	{"top-level array", `[1]`, false},
	{"empty input", ``, false},
	{"truncated", `{"version":1,"counts":[1`, false},
	{"times_ns", `{"version":1,"counts":[2,1],"messages":[],"times_ns":[[5,-7],[0]]}`, true},
	{"times_ns before intervals", `{"times_ns":[[1],[]],"intervals":[{"name":"x","events":[]},{"name":"y"}],"version":1}`, true},
	{"negative and minus zero", `{"version":-0,"counts":[-3,0]}`, true},
	{"empty object", ` {} `, true},
	{"empty arrays", `{"version":1,"counts":[],"messages":[],"intervals":[],"times_ns":[]}`, true},
	{"missing fields", `{"intervals":[{},{"events":[{}]}],"messages":[{}]}`, true},
	{"any whitespace", "\r\n{\t\"version\" :1 ,\n\"counts\":[ 1 ,2 ]\r}\n", true},
}

func TestDecodersAgreeOnScanBoundaries(t *testing.T) {
	for _, c := range scanCases {
		t.Run(c.name, func(t *testing.T) {
			if _, ok := scanJSON([]byte(c.data)); ok != c.scanned {
				t.Errorf("scanner accepted = %t, want %t", ok, c.scanned)
			}
			assertDecodersAgree(t, []byte(c.data))
		})
	}
}

// TestScannerDecodesWriteJSON pins that generated traces written by
// WriteJSON take the scanner path, in the indented layout WriteJSON uses,
// compacted, and re-indented with tabs and CRLF line ends, and that the
// result equals encoding/json's. (A trace without messages is written with
// "messages": null and goes to encoding/json.)
func TestScannerDecodesWriteJSON(t *testing.T) {
	for _, pat := range sim.Patterns() {
		res, err := sim.Generate(sim.Config{Pattern: pat, Procs: 4, Rounds: 3, Events: 24, Seed: 11})
		if err != nil {
			t.Fatalf("%v: %v", pat, err)
		}
		named := map[string][]poset.EventID{}
		for _, ph := range res.Phases {
			named[ph.Name] = ph.Events
		}
		f := New(res.Exec, named)
		if pat == sim.Ring {
			f.SetTiming(rt.Synthesize(res.Exec, rt.SynthesizeConfig{Seed: 5}))
		}
		indented := jsonBytes(t, f)
		var compact, tabbed bytes.Buffer
		if err := json.Compact(&compact, indented); err != nil {
			t.Fatal(err)
		}
		if err := json.Indent(&tabbed, compact.Bytes(), "", "\t"); err != nil {
			t.Fatal(err)
		}
		crlf := strings.ReplaceAll(tabbed.String(), "\n", "\r\n")
		for layout, data := range map[string][]byte{
			"indented": indented, "compact": compact.Bytes(), "tabs+crlf": []byte(crlf),
		} {
			if _, ok := scanJSON(data); !ok {
				t.Errorf("%v %s: scanner fell back on WriteJSON output", pat, layout)
			}
			assertDecodersAgree(t, data)
		}
	}
}

// TestScannerArenasAreClamped checks that the slices handed out of the
// scanner's shared arenas cannot be appended into their neighbours.
func TestScannerArenasAreClamped(t *testing.T) {
	f, ok := scanJSON([]byte(`{"intervals":[{"name":"a","events":[{"proc":0,"pos":1}]},{"name":"b","events":[{"proc":1,"pos":1}]}],"times_ns":[[1],[2]]}`))
	if !ok {
		t.Fatal("scanner fell back")
	}
	_ = append(f.Intervals[0].Events, EventRec{Proc: 9, Pos: 9})
	_ = append(f.TimesNS[0], 9)
	if f.Intervals[1].Events[0] != (EventRec{Proc: 1, Pos: 1}) || f.TimesNS[1][0] != 2 {
		t.Fatalf("append to one arena slice overwrote the next: %+v %v", f.Intervals, f.TimesNS)
	}
}
