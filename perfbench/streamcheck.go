package main

import (
	"fmt"

	"causet/internal/monitor"
	"causet/internal/online"
	"causet/internal/poset"
	"causet/internal/sim"
)

// checkSize sizes stream-check: a gossip execution of rounds rounds over
// procs processes, one condition per consecutive round pair.
type checkSize struct{ procs, rounds int }

// checkFull reaches ~1,000 conditions, where the O(#conditions) Check
// listing dominates the per-event cost.
var checkFull = checkSize{procs: 8, rounds: 1024}

// condShapes rotate over the conditions: atoms of several relations, a
// negation and a conjunction, so that both holds and violated occur. %[1]s
// is the earlier interval, %[2]s the later one.
var condShapes = []string{
	"R1(%[1]s, %[2]s)",
	"R2(%[1]s, %[2]s)",
	"R2'(%[1]s, %[2]s)",
	"R3(%[1]s, %[2]s)",
	"R3'(%[1]s, %[2]s)",
	"R4(%[1]s, %[2]s)",
	"!R4(%[2]s, %[1]s)",
	"R4(%[1]s, %[2]s) && R3'(%[1]s, %[2]s)",
}

type opKind uint8

const (
	opLocal opKind = iota
	opSend
	opRecv
)

// replayOp is one event of the generated execution in replay order.
type replayOp struct {
	kind  opKind
	proc  int
	from  poset.EventID // opRecv: the send
	ev    poset.EventID // the ID the stream must return
	phase int32         // interval the event belongs to, -1 for none
	last  bool          // the event completes its interval
}

type condSpec struct{ name, src string }

type streamCheck struct {
	procs   int
	ops     []replayOp
	phases  []string
	conds   []condSpec
	condsOf [][]int32 // phase → conditions referencing it
	want    []monitor.State
}

func newStreamCheck(size checkSize, seed int64) (*streamCheck, error) {
	gen, err := sim.Generate(sim.Config{Pattern: sim.Gossip, Procs: size.procs, Rounds: size.rounds, Seed: seed})
	if err != nil {
		return nil, err
	}
	ex := gen.Exec
	w := &streamCheck{procs: ex.NumProcs()}
	phaseOf := make(map[poset.EventID]int32, ex.NumEvents())
	remaining := make([]int, len(gen.Phases))
	for i, ph := range gen.Phases {
		w.phases = append(w.phases, ph.Name)
		remaining[i] = len(ph.Events)
		for _, e := range ph.Events {
			phaseOf[e] = int32(i)
		}
	}
	sendFor := make(map[poset.EventID]poset.EventID, len(ex.Messages()))
	isSend := make(map[poset.EventID]bool, len(ex.Messages()))
	for _, m := range ex.Messages() {
		if _, dup := sendFor[m.To]; dup {
			return nil, fmt.Errorf("event %v receives several messages", m.To)
		}
		sendFor[m.To] = m.From
		isSend[m.From] = true
	}
	for _, e := range ex.LinearExtension() {
		op := replayOp{kind: opLocal, proc: e.Proc, ev: e, phase: -1}
		if from, ok := sendFor[e]; ok {
			op.kind, op.from = opRecv, from
		} else if isSend[e] {
			op.kind = opSend
		}
		if p, ok := phaseOf[e]; ok {
			op.phase = p
			remaining[p]--
			op.last = remaining[p] == 0
		}
		w.ops = append(w.ops, op)
	}
	w.condsOf = make([][]int32, len(w.phases))
	for i := 0; i+1 < len(w.phases); i++ {
		shape := condShapes[(i+int(seed%int64(len(condShapes)))+len(condShapes))%len(condShapes)]
		w.conds = append(w.conds, condSpec{
			name: fmt.Sprintf("c%d", i),
			src:  fmt.Sprintf(shape, w.phases[i], w.phases[i+1]),
		})
		w.condsOf[i] = append(w.condsOf[i], int32(i))
		w.condsOf[i+1] = append(w.condsOf[i+1], int32(i))
	}
	if w.want, err = offlineVerdicts(coldBuild(ex), gen.Phases, w.conds); err != nil {
		return nil, fmt.Errorf("oracle: %w", err)
	}
	return w, nil
}

// coldBuild rebuilds ex from scratch through a fresh poset.Builder, so the
// oracle shares no structure with the generator's execution.
func coldBuild(ex *poset.Execution) *poset.Builder {
	b := poset.NewBuilder(ex.NumProcs())
	for p := 0; p < ex.NumProcs(); p++ {
		if n := ex.NumReal(p); n > 0 {
			b.AppendN(p, n)
		}
	}
	for _, m := range ex.Messages() {
		if err := b.Message(m.From, m.To); err != nil {
			panic(err) // the messages of a valid execution are valid
		}
	}
	return b
}

// offlineVerdicts is the oracle of both stream workloads: the offline
// monitor over a cold Build of the execution, with the same intervals and
// conditions, checked once.
func offlineVerdicts(b *poset.Builder, phases []sim.Phase, conds []condSpec) ([]monitor.State, error) {
	ex, err := b.Build()
	if err != nil {
		return nil, err
	}
	m := monitor.New(ex)
	for _, ph := range phases {
		if err := m.Define(ph.Name, ph.Events); err != nil {
			return nil, err
		}
	}
	for _, c := range conds {
		if err := m.AddCondition(c.name, c.src); err != nil {
			return nil, err
		}
	}
	out := make([]monitor.State, len(conds))
	for i, r := range m.Check() {
		if r.Err != nil {
			return nil, fmt.Errorf("condition %s: %w", r.Name, r.Err)
		}
		out[i] = r.State
	}
	return out, nil
}

func (w *streamCheck) oracle() []monitor.State { return w.want }
func (w *streamCheck) numEvents() int          { return len(w.ops) }

// appendOp records one replayed event on the stream.
func appendOp(s *online.Stream, op *replayOp) (poset.EventID, error) {
	switch op.kind {
	case opRecv:
		return s.Recv(op.proc, op.from)
	case opSend:
		return s.Send(op.proc)
	default:
		return s.Local(op.proc)
	}
}

// pass replays the execution through an unbounded stream and monitor with
// every condition registered up front, calling Check after each event.
func (w *streamCheck) pass(o passOpts) (passStats, error) {
	st := passStats{events: len(w.ops)}
	sp := o.spans
	t0 := now()
	s := online.NewStream(w.procs)
	m := online.NewMonitor(s)
	if o.reg != nil {
		s.Instrument(o.reg, nil)
		m.Instrument(o.reg)
	}
	for i, c := range w.conds {
		sp.begin(spAddCondition, int64(i))
		err := m.AddCondition(c.name, c.src)
		sp.end()
		st.calls++
		if err != nil {
			return st, fmt.Errorf("add condition %s: %w", c.name, err)
		}
	}
	st.setupNs = float64(now() - t0)

	d := newDelivery(len(w.conds), 2)
	loop0 := now()
	for i := range w.ops {
		op := &w.ops[i]
		id := int64(i)
		sp.begin(spStep, id)
		a := now()

		sp.begin(spAppend, id)
		e, err := appendOp(s, op)
		dur := sp.end()
		st.calls++
		if err != nil {
			return st, fmt.Errorf("append %v: %w", op.ev, err)
		}
		if e != op.ev {
			return st, fmt.Errorf("append returned %v, want %v", e, op.ev)
		}
		if o.track {
			st.noteRetained(s.RetainedEvents(), dur)
		}
		if op.phase >= 0 {
			name := w.phases[op.phase]
			sp.begin(spObserve, id)
			err := m.Observe(name, e)
			sp.end()
			st.calls++
			if err != nil {
				return st, fmt.Errorf("observe %s: %w", name, err)
			}
			if op.last {
				sp.begin(spComplete, id)
				err := m.Complete(name)
				tc := now()
				sp.endAs(-1, tc)
				st.calls++
				if err != nil {
					return st, fmt.Errorf("complete %s: %w", name, err)
				}
				for _, c := range w.condsOf[op.phase] {
					d.unblock(c, tc)
				}
			}
		}

		sp.begin(spCheckIdle, id)
		res := m.Check()
		b := now()
		st.calls++
		st.entries += int64(len(res))
		delivered := 0
		if len(d.waiting) > 0 {
			delivered = d.fromListing(res, b, o.detect)
		}
		if delivered > 0 {
			sp.endAs(spCheckSettle, b)
		} else {
			sp.endAs(-1, b)
		}
		sp.end() // step
		if o.step != nil {
			o.step.add(b - a)
		}
		st.noteStep(i, len(w.ops), b-a)
		o.heap.maybe(i)
	}
	st.loopNs = now() - loop0
	if o.heap != nil {
		st.loopNs -= o.heap.pausedNs
	}
	st.verdicts, st.settled = d.verdicts, d.settled
	if o.reg != nil {
		st.counters, st.series = registryCounts(o.reg)
	}
	return st, nil
}

func runStreamCheck(size checkSize, cfg runConfig) (*result, error) {
	w, err := newStreamCheck(size, cfg.seed)
	if err != nil {
		return nil, err
	}
	return runStream(w, cfg)
}
