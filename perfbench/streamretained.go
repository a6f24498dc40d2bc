package main

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"

	"causet/internal/monitor"
	"causet/internal/obs"
	"causet/internal/online"
	"causet/internal/poset"
	"causet/internal/sim"
)

// retainedSize sizes stream-retained: a causal ring chain of rounds rounds
// over procs processes under a retention window of window events appraised
// every `every` events. Every lagEvery rounds a second condition reaches
// lag rounds back, so one interval is held by several conditions across
// appraisals; lag·procs stays well inside the window, so no interval is
// released before its last condition arrives.
type retainedSize struct {
	procs, rounds, window, every, lag, lagEvery int
}

var retainedFull = retainedSize{procs: 8, rounds: 16384, window: 512, every: 128, lag: 6, lagEvery: 4}

// retainedShapes rotate over the conditions. Every round of the chain
// precedes the next, so forward atoms hold and backward ones are violated.
var retainedShapes = []string{
	"R1(%[1]s, %[2]s)",
	"R4(%[2]s, %[1]s)",
	"!R2'(%[2]s, %[1]s)",
	"R2(%[1]s, %[2]s) && R3'(%[1]s, %[2]s)",
	"R3(%[2]s, %[1]s)",
	"R4'(%[1]s, %[2]s)",
}

type streamRetained struct {
	size   retainedSize
	policy online.RetentionPolicy
	perm   []uint8 // perm[r*procs+j]: process of the j-th event of round r
	names  []string
	conds  []condSpec
	first  []int // conditions added when round r completes: conds[first[r]:first[r+1]]
	want   []monitor.State
}

func newStreamRetained(size retainedSize, seed int64) (*streamRetained, error) {
	if size.procs < 2 || size.procs > 255 || size.lag*size.procs >= size.window {
		return nil, fmt.Errorf("retained size %+v invalid", size)
	}
	w := &streamRetained{
		size:   size,
		policy: online.RetentionPolicy{MaxEvents: size.window, Every: size.every, DropSettled: true},
		perm:   make([]uint8, 0, size.rounds*size.procs),
		first:  make([]int, size.rounds+1),
	}
	rng := rand.New(rand.NewSource(seed))
	last := -1
	for r := 0; r < size.rounds; r++ {
		p := rng.Perm(size.procs)
		if p[0] == last { // a receive never names a send on its own process
			p[0], p[1] = p[1], p[0]
		}
		last = p[size.procs-1]
		for _, q := range p {
			w.perm = append(w.perm, uint8(q))
		}
		w.names = append(w.names, "round-"+strconv.Itoa(r))
	}
	shape := int(uint64(seed) % uint64(len(retainedShapes)))
	add := func(x, y int) {
		src := fmt.Sprintf(retainedShapes[shape%len(retainedShapes)], w.names[x], w.names[y])
		shape++
		w.conds = append(w.conds, condSpec{name: "c" + strconv.Itoa(len(w.conds)), src: src})
	}
	for r := 0; r < size.rounds; r++ {
		w.first[r] = len(w.conds)
		if r > 0 {
			add(r-1, r)
		}
		if r >= size.lag && r%size.lagEvery == 0 {
			add(r-size.lag, r)
		}
	}
	w.first[size.rounds] = len(w.conds)

	// Oracle: the same chain through a cold poset.Builder.
	b := poset.NewBuilder(size.procs)
	phases := make([]sim.Phase, size.rounds)
	var prev poset.EventID
	for r := 0; r < size.rounds; r++ {
		phases[r].Name = w.names[r]
		for j := 0; j < size.procs; j++ {
			e := b.Append(int(w.perm[r*size.procs+j]))
			if r > 0 || j > 0 {
				if err := b.Message(prev, e); err != nil {
					return nil, err
				}
			}
			phases[r].Events = append(phases[r].Events, e)
			prev = e
		}
	}
	var err error
	if w.want, err = offlineVerdicts(b, phases, w.conds); err != nil {
		return nil, fmt.Errorf("oracle: %w", err)
	}
	return w, nil
}

func (w *streamRetained) oracle() []monitor.State { return w.want }
func (w *streamRetained) numEvents() int          { return len(w.perm) }

// setupReps is how many times a pass constructs the monitor to time its
// set-up, which is only microseconds.
const setupReps = 31

func (w *streamRetained) build() (*online.Stream, *online.Monitor, *obs.Registry, error) {
	reg := obs.New()
	s := online.NewStream(w.size.procs)
	s.Instrument(reg, nil)
	m := online.NewMonitor(s)
	m.Instrument(reg)
	return s, m, reg, m.SetRetention(w.policy)
}

// pass generates the chain live on a retained stream: each round's events
// are appended and observed, the round is completed and its conditions
// added, and Poll runs after every event.
func (w *streamRetained) pass(o passOpts) (passStats, error) {
	st := passStats{events: len(w.perm)}
	sp := o.spans
	var setup [setupReps]float64
	var s *online.Stream
	var m *online.Monitor
	var reg *obs.Registry
	for i := range setup {
		t0 := now()
		var err error
		s, m, reg, err = w.build()
		setup[i] = float64(now() - t0)
		st.calls++
		if err != nil {
			return st, fmt.Errorf("set retention: %w", err)
		}
	}
	sort.Float64s(setup[:])
	st.setupNs = setup[setupReps/2]

	procs := w.size.procs
	d := newDelivery(len(w.conds), 0)
	var prev poset.EventID
	loop0 := now()
	for i, pb := range w.perm {
		id := int64(i)
		r, j := i/procs, i%procs
		name := w.names[r]
		sp.begin(spStep, id)
		a := now()

		sp.begin(spAppend, id)
		var e poset.EventID
		var err error
		if i == 0 {
			e, err = s.Send(int(pb))
		} else {
			e, err = s.Recv(int(pb), prev)
		}
		dur := sp.end()
		st.calls++
		if err != nil {
			return st, fmt.Errorf("append round %d: %w", r, err)
		}
		if o.track {
			st.noteRetained(s.RetainedEvents(), dur)
		}
		prev = e

		sp.begin(spObserve, id)
		err = m.Observe(name, e)
		dur = sp.end()
		st.calls++
		if err != nil {
			return st, fmt.Errorf("observe %s: %w", name, err)
		}
		if o.track {
			st.noteRetained(s.RetainedEvents(), dur)
		}
		if j == procs-1 {
			sp.begin(spComplete, id)
			err := m.Complete(name)
			dur := sp.end()
			st.calls++
			if err != nil {
				return st, fmt.Errorf("complete %s: %w", name, err)
			}
			if o.track {
				st.noteRetained(s.RetainedEvents(), dur)
			}
			for c := w.first[r]; c < w.first[r+1]; c++ {
				sp.begin(spAddCondition, id)
				err := m.AddCondition(w.conds[c].name, w.conds[c].src)
				tc := now()
				dur := sp.endAs(-1, tc)
				st.calls++
				if err != nil {
					return st, fmt.Errorf("add condition %s: %w", w.conds[c].name, err)
				}
				if o.track {
					st.noteRetained(s.RetainedEvents(), dur)
				}
				d.evalAt[c] = tc
			}
		}

		sp.begin(spCheckIdle, id)
		res := m.Poll()
		b := now()
		st.calls++
		for _, v := range res {
			c, err := strconv.Atoi(v.Name[1:])
			if err != nil || c < 0 || c >= len(w.conds) {
				return st, fmt.Errorf("poll delivered unknown condition %q", v.Name)
			}
			d.settle(c, v.State, b, o.detect)
		}
		if len(res) > 0 {
			dur = sp.endAs(spCheckSettle, b)
		} else {
			dur = sp.endAs(-1, b)
		}
		if o.track {
			st.noteRetained(s.RetainedEvents(), dur)
		}
		sp.end() // step
		if o.step != nil {
			o.step.add(b - a)
		}
		st.noteStep(i, len(w.perm), b-a)
		o.heap.maybe(i)
	}
	st.loopNs = now() - loop0
	if o.heap != nil {
		st.loopNs -= o.heap.pausedNs
	}
	st.verdicts, st.settled = d.verdicts, d.settled
	st.counters, st.series = registryCounts(reg)
	return st, nil
}

func runStreamRetained(size retainedSize, cfg runConfig) (*result, error) {
	w, err := newStreamRetained(size, cfg.seed)
	if err != nil {
		return nil, err
	}
	return runStream(w, cfg)
}
