package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"time"
)

// epoch anchors now(): monotonic nanoseconds since process start.
var epoch = time.Now()

func now() int64 { return int64(time.Since(epoch)) }

// Span names. Each names the library call the benchmark wraps; step and
// pass are the driver's own roots, whose self time is driver overhead.
const (
	spStep = iota
	spAppend
	spObserve
	spComplete
	spAddCondition
	spCheckIdle
	spCheckSettle
	spPass
	spSetup
	spDecode
	spExecution
	spNewAnalysis
	spIntervalBuild
	spMatrix
	spCutBuild
	spTable1
	spStrongest
	numSpans
)

var spanNames = [numSpans]string{
	spStep:          "step",
	spAppend:        "online.append",
	spObserve:       "online.observe",
	spComplete:      "online.complete",
	spAddCondition:  "online.add_condition",
	spCheckIdle:     "online.check_idle",
	spCheckSettle:   "online.check_settle",
	spPass:          "pass",
	spSetup:         "setup",
	spDecode:        "trace.decode",
	spExecution:     "poset.execution",
	spNewAnalysis:   "core.new_analysis",
	spIntervalBuild: "interval.build",
	spMatrix:        "batch.matrix",
	spCutBuild:      "core.cut_build",
	spTable1:        "core.table1",
	spStrongest:     "hierarchy.strongest",
}

type openSpan struct {
	name  int
	seq   int64
	id    int64
	start int64
	child int64 // summed duration of closed direct children
}

type keptSpan struct {
	name         int32
	seq, parent  int64
	id           int64
	start, durNs int64
}

// spans records the benchmark's spans around library calls on the driver
// goroutine. Self and total time are aggregated per name as spans close,
// so memory stays fixed however long the run; only the first keepMax
// spans are kept verbatim for the span file. A nil *spans records nothing
// and reads no clock.
type spans struct {
	stack   []openSpan
	seq     int64
	count   [numSpans]int64
	total   [numSpans]int64
	self    [numSpans]int64
	inStep  int64 // summed duration of spans directly inside a step span
	kept    []keptSpan
	dropped int64
}

const keepMax = 20000

func newSpans() *spans {
	return &spans{stack: make([]openSpan, 0, 8), kept: make([]keptSpan, 0, keepMax)}
}

// begin opens a span; id groups the spans of one event or pair.
func (s *spans) begin(name int, id int64) {
	if s == nil {
		return
	}
	s.seq++
	s.stack = append(s.stack, openSpan{name: name, seq: s.seq, id: id, start: now()})
}

// end closes the innermost span now and returns its duration.
func (s *spans) end() int64 {
	if s == nil {
		return 0
	}
	return s.endAs(-1, now())
}

// endAs closes the innermost span at time t, renaming it when name ≥ 0
// (a check span learns whether it delivered a verdict only after the call
// returns).
func (s *spans) endAs(name int, t int64) int64 {
	if s == nil {
		return 0
	}
	top := s.stack[len(s.stack)-1]
	s.stack = s.stack[:len(s.stack)-1]
	if name >= 0 {
		top.name = name
	}
	dur := t - top.start
	s.count[top.name]++
	s.total[top.name] += dur
	s.self[top.name] += dur - top.child
	parent := int64(0)
	if n := len(s.stack); n > 0 {
		s.stack[n-1].child += dur
		parent = s.stack[n-1].seq
		if s.stack[n-1].name == spStep {
			s.inStep += dur
		}
	}
	if len(s.kept) < keepMax {
		s.kept = append(s.kept, keptSpan{name: int32(top.name), seq: top.seq, parent: parent, id: top.id, start: top.start, durNs: dur})
	} else {
		s.dropped++
	}
	return dur
}

// meanNs is the mean self time (duration minus enclosed spans) of the
// spans of one name, 0 when none ran.
func (s *spans) meanNs(name int) float64 {
	if s.count[name] == 0 {
		return 0
	}
	return float64(s.self[name]) / float64(s.count[name])
}

// writeChrome writes the kept spans as Chrome trace_event JSON (object
// form, complete "X" events), loadable in about://tracing and Perfetto.
// args.span and args.parent link each span to the one that enclosed it;
// args.id is the event index (stream workloads) or pair/pass index
// (offline-matrix) the spans share. obs.Tracer writes the same format but
// reads its own clock and has no parent or id fields, so the spans are
// encoded here.
func (s *spans) writeChrome(path, workload string, seed int64) error {
	type args struct {
		Span   int64 `json:"span"`
		Parent int64 `json:"parent"`
		ID     int64 `json:"id"`
	}
	type event struct {
		Name string  `json:"name"`
		Cat  string  `json:"cat"`
		Ph   string  `json:"ph"`
		TS   float64 `json:"ts"`
		Dur  float64 `json:"dur"`
		PID  int     `json:"pid"`
		TID  int     `json:"tid"`
		Args args    `json:"args"`
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintf(w, `{"displayTimeUnit":"ms","otherData":{"workload":%q,"seed":%d,"kept_spans":%d,"dropped_spans":%d},"traceEvents":[`,
		workload, seed, len(s.kept), s.dropped)
	enc := json.NewEncoder(w)
	for i, k := range s.kept {
		if i > 0 {
			w.WriteByte(',')
		}
		if err := enc.Encode(event{
			Name: spanNames[k.name], Cat: "perfbench", Ph: "X",
			TS: float64(k.start) / 1e3, Dur: float64(k.durNs) / 1e3, PID: 1, TID: 1,
			Args: args{Span: k.seq, Parent: k.parent, ID: k.id},
		}); err != nil {
			f.Close()
			return err
		}
	}
	w.WriteString("]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
