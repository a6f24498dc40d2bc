package online

import (
	"context"
	"fmt"
	"log/slog"
	"slices"
	"sort"
	"sync"
	"time"

	"causet/internal/core"
	"causet/internal/explain"
	"causet/internal/hierarchy"
	"causet/internal/interval"
	"causet/internal/monitor"
	"causet/internal/obs"
	"causet/internal/poset"
)

// ivRec is the monitor's whole state for one interval name. A record exists
// while the name is live: growing, complete and retained, or merely
// referenced by an unsettled condition before its first Observe. Retiring
// the name deletes the record and leaves only a tombstone key.
type ivRec struct {
	events   []poset.EventID
	observed bool // false while only conditions reference the name
	complete bool
	doneAt   time.Time // completion stamp, for detection latency

	// Retention clocks. While the interval grows, seq is the stream
	// position of its last Observe (the abandonment clock). Once it is
	// complete, seq and at start the release window: the later of its
	// completion and the settlement of its last referencing condition.
	seq int
	at  time.Time

	refs    int        // unsettled conditions referencing the interval
	waiting []*condRec // conditions blocked on its completion

	// Inner-monitor state: defined once registered; bad poisons the name
	// when Define failed (e.g. bogus event IDs), so every condition that
	// references it settles Failed.
	defined bool
	bad     error
}

// condRec is the monitor's whole state for one registered condition. Its
// verdict lives in the monitor's listing, at idx.
type condRec struct {
	c       monitor.Condition
	refs    []string // monitor.Referenced(c.Expr), computed once
	missing int      // referenced intervals not yet complete
	settled bool
	idx     int       // position in conds and listing
	seq     int       // settlement stream position (retention only)
	at      time.Time // settlement time on the monitor clock (retention only)
	expl    *explain.ConditionExplanation
}

// Monitor detects synchronization conditions online: nonatomic events grow
// via Observe as their member events occur, become immutable via Complete,
// and each condition is evaluated as soon as every interval it references
// is complete. By verdict stability (see the package comment) the first
// non-pending result of a condition is also its final one; Check memoizes
// it and never re-evaluates.
//
// The monitor keeps one record per live interval name and one per
// condition. Complete promotes exactly the conditions it unblocked onto a
// ready queue, and Check drains that queue against one persistent inner
// monitor that is rebased onto each new snapshot epoch: conditions are
// compiled once, intervals are defined once, and cut caches survive across
// checks. The differential oracle is the offline monitor.Monitor over a
// cold Builder.Build of the same prefix (see
// TestIncrementalSnapshotAgreement).
//
// The Check listing is persistent state too, updated in place at settlement
// and handed out copy-on-write: Check returns it with cap == len and marks it
// shared, and the first write after that (a settlement or a DropSettled
// compaction) clones it first. A slice a caller holds is therefore never
// written again.
type Monitor struct {
	stream *Stream

	mu      sync.Mutex
	ivs     map[string]*ivRec
	conds   []*condRec          // registration order; DropSettled removes entries
	listing []monitor.Result    // parallel to conds: Pending or the final verdict
	shared  bool                // listing was handed out by Check; clone before writing
	byName  map[string]*condRec // nil value: dropped, the name stays reserved
	ready   []*condRec          // unblocked, not yet evaluated
	inner   *monitor.Monitor    // persistent inner monitor, created lazily

	// explainOn captures a witness and critical-path explanation over the
	// settling snapshot for every condition that holds or is violated.
	explainOn bool

	// Detection latency: Complete stamps each interval with nowFn; settle
	// reports now − max(stamp of referenced intervals) — the lag from the
	// decisive event (the completion that made the condition evaluable) to
	// the verdict. nowFn is injectable, so timed-trace replays measure in
	// trace time; the default time.Now carries Go's monotonic reading, the
	// wall-clock fallback.
	nowFn func() time.Time

	lg             *slog.Logger
	reg            *obs.Registry
	metSettlements *obs.Counter
	violWin        *obs.Window
	detectWin      *obs.Window
	detectHist     *obs.Histogram
	checkWin       *obs.Window
	metReleased    *obs.Counter
	metAbandoned   *obs.Counter

	// Retention (SetRetention; retention.go): bounded-memory mode for
	// long-running streams. Retiring an interval deletes its record and
	// adds its name to released or abandoned, so later operations on it
	// fail with a clear error and the name is never reused. watermark
	// caches the last applied compaction cut so Observe can reject
	// already-compacted positions without taking the stream lock. Lock
	// order is m.mu then stream.mu, never the reverse.
	retention    RetentionPolicy
	retainOn     bool
	released     map[string]struct{}
	abandoned    map[string]struct{}
	watermark    []int
	lastAppraise int
	// newResults accumulates verdicts since the last Poll; Poll returns and
	// clears it, and Check clears it too so a Check-only driver does not
	// grow it without bound.
	newResults []monitor.Result
}

// NewMonitor creates an online monitor over the stream, with no intervals,
// no conditions and retention off.
func NewMonitor(s *Stream) *Monitor {
	return &Monitor{
		stream:    s,
		ivs:       make(map[string]*ivRec),
		byName:    make(map[string]*condRec),
		nowFn:     time.Now,
		released:  make(map[string]struct{}),
		abandoned: make(map[string]struct{}),
	}
}

// EnableExplanations switches causal explanation capture on or off: when
// on, every condition that settles as holds or violated also gets a
// witness/critical-path explanation (see internal/explain) retained for
// Explanation. Off by default — capture costs one witness extraction per
// condition atom at settlement, nothing on the evaluation hot path.
func (m *Monitor) EnableExplanations(on bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if on && m.retainOn {
		panic("online: explanation capture is unavailable with retention enabled")
	}
	m.explainOn = on
}

// Explanation returns the retained explanation of a settled condition
// (holds/violated only; pending, failed, and unexplained conditions report
// false).
func (m *Monitor) Explanation(name string) (*explain.ConditionExplanation, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if cr := m.byName[name]; cr != nil && cr.expl != nil {
		return cr.expl, true
	}
	return nil, false
}

// SetLogger attaches a structured event log (may be nil). The monitor
// emits interval_observe (Debug) on growth, interval_complete (Info) on
// freeze, and — exactly once per condition, by verdict stability —
// condition_settled with the condition source and final verdict (Info for
// holds, Warn for violated, Error for failed).
func (m *Monitor) SetLogger(lg *slog.Logger) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.lg = lg
}

// Instrument attaches a metrics registry (may be nil): the
// online.settlements counter counts final verdicts, the
// online.violation_window sliding window observes one sample per violated
// condition (giving the dashboard a recent-violation rate), detection
// latency lands in the online.detect_latency_ns window (recent quantiles)
// and the online.detect_latency_hist_ns histogram (full distribution), and
// every Check or Poll call records its whole wall-clock cost (ready-queue
// drain, retention appraisal and handout) in the monitor.check_ns window —
// this is the series that shows the amortization working. A condition's own
// latency is the detect_latency_ns field of its condition_settled log line,
// not an instrument: no instrument name is minted from a condition name, so
// the registry does not grow with the stream.
func (m *Monitor) Instrument(reg *obs.Registry) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.reg = reg
	m.metSettlements = reg.Counter("online.settlements")
	m.violWin = reg.Window("online.violation_window", 256)
	m.detectWin = reg.Window("online.detect_latency_ns", 256)
	m.detectHist = reg.Histogram("online.detect_latency_hist_ns", obs.DurationBuckets)
	m.checkWin = reg.Window("monitor.check_ns", 256)
	m.metReleased = reg.Counter("monitor.released_intervals")
	m.metAbandoned = reg.Counter("monitor.abandoned_intervals")
}

// SetNow injects the monitor's clock (nil restores time.Now). Timed-trace
// replay drivers point this at the trace's virtual clock so detection
// latency is measured in trace time rather than replay wall time.
func (m *Monitor) SetNow(now func() time.Time) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if now == nil {
		now = time.Now
	}
	m.nowFn = now
}

// settle records the final verdict of a condition; the caller holds m.mu
// and guarantees it is not yet settled. This is the single point every
// verdict passes through, so the settlement log event fires exactly once
// per condition.
func (m *Monitor) settle(cr *condRec, res monitor.Result, ce *explain.ConditionExplanation) {
	cr.settled = true
	m.ownListingLocked()
	m.listing[cr.idx] = res
	m.newResults = append(m.newResults, res)
	var total int
	var now time.Time
	if m.retainOn {
		total, now = m.stream.TotalEvents(), m.nowFn()
		cr.seq, cr.at = total, now
	}
	// Release this condition's hold on its referenced intervals. An interval
	// nobody else waits on drops its settled waiters; one that was only ever
	// referenced has nothing left to keep; and for a complete one the last
	// settlement to let go restarts its retention window, so a
	// StrongestBetween query issued when the verdict lands still finds its
	// operands.
	for _, name := range cr.refs {
		rec := m.ivs[name]
		if rec == nil {
			continue
		}
		if rec.refs--; rec.refs > 0 {
			continue
		}
		switch {
		case !rec.observed:
			delete(m.ivs, name)
		case !rec.complete:
			rec.waiting = nil
		case m.retainOn:
			rec.seq = total
			if now.After(rec.at) {
				rec.at = now
			}
		}
	}
	if ce != nil {
		ce.State = res.State.String()
		cr.expl = ce
	}
	m.metSettlements.Inc()
	if res.State == monitor.Violated {
		m.violWin.Observe(1)
	}
	// Detection latency is the lag to an actual verdict; a Failed settlement
	// is an error report, and measuring it against whatever completion
	// stamps happen to survive (some may already be released) would record
	// a stale or meaningless value.
	var latency time.Duration
	haveLatency := false
	if res.State != monitor.Failed {
		latency, haveLatency = m.detectLatency(cr)
	}
	if haveLatency {
		m.detectWin.Observe(int64(latency))
		m.detectHist.Observe(int64(latency))
	}
	lvl := slog.LevelInfo
	switch res.State {
	case monitor.Violated:
		lvl = slog.LevelWarn
	case monitor.Failed:
		lvl = slog.LevelError
	}
	if !m.logOn(lvl) {
		return
	}
	attrs := []slog.Attr{
		slog.String("condition", cr.c.Name),
		slog.String("src", cr.c.Src),
		slog.String("state", res.State.String()),
	}
	if haveLatency {
		attrs = append(attrs, slog.Int64("detect_latency_ns", int64(latency)))
	}
	if res.Err != nil {
		attrs = append(attrs, slog.Any("err", res.Err))
	}
	if ce != nil {
		attrs = append(attrs, slog.String("witness", witnessSummary(ce)))
	}
	m.lg.LogAttrs(context.TODO(), lvl, "condition_settled", attrs...)
}

// logOn reports whether events at lvl reach the log; false without one.
// Callers check it before building fields.
func (m *Monitor) logOn(lvl slog.Level) bool {
	return m.lg != nil && m.lg.Enabled(context.TODO(), lvl)
}

// Observe appends member events to the named growing interval, creating it
// on first use. Observing a completed interval is an error.
func (m *Monitor) Observe(name string, events ...poset.EventID) error {
	if name == "" {
		return fmt.Errorf("online: interval name must be non-empty")
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	rec := m.ivs[name]
	if rec == nil {
		if err := m.retiredErrLocked(name); err != nil {
			return err
		}
	} else if rec.complete {
		return fmt.Errorf("online: interval %q is already complete", name)
	}
	if m.watermark != nil {
		for _, e := range events {
			if e.Proc >= 0 && e.Proc < len(m.watermark) && e.Pos <= m.watermark[e.Proc] {
				return fmt.Errorf("online: event p%d:%d was compacted by retention (watermark %d); observe events before they age out or widen the policy window",
					e.Proc, e.Pos, m.watermark[e.Proc])
			}
		}
	}
	if rec == nil {
		rec = &ivRec{}
		m.ivs[name] = rec
	}
	rec.observed = true
	rec.events = append(rec.events, events...)
	if m.logOn(slog.LevelDebug) {
		m.lg.LogAttrs(context.TODO(), slog.LevelDebug, "interval_observe",
			slog.String("interval", name), slog.Int("added", len(events)), slog.Int("size", len(rec.events)))
	}
	if m.retainOn {
		total := m.stream.TotalEvents()
		rec.seq = total
		if total-m.lastAppraise >= m.retention.Every {
			m.appraiseLocked(total)
		}
	}
	return nil
}

// Complete freezes the named interval; conditions referencing it become
// evaluable once their other references complete too. Completion decrements
// the missing-count of every condition waiting on the interval and promotes
// the fully-unblocked ones to the ready queue the next Check drains.
func (m *Monitor) Complete(name string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	rec := m.ivs[name]
	switch {
	case rec == nil || !rec.observed:
		if err := m.retiredErrLocked(name); err != nil {
			return err
		}
		return fmt.Errorf("online: interval %q was never observed", name)
	case rec.complete:
		return fmt.Errorf("online: interval %q is already complete", name)
	case len(rec.events) == 0:
		return fmt.Errorf("online: interval %q has no events", name)
	}
	rec.complete = true
	rec.doneAt = m.nowFn()
	rec.at = rec.doneAt
	for _, cr := range rec.waiting {
		if cr.missing--; cr.missing == 0 && !cr.settled {
			m.ready = append(m.ready, cr)
		}
	}
	rec.waiting = nil
	if m.logOn(slog.LevelInfo) {
		m.lg.LogAttrs(context.TODO(), slog.LevelInfo, "interval_complete",
			slog.String("interval", name), slog.Int("size", len(rec.events)))
	}
	if m.retainOn {
		total := m.stream.TotalEvents()
		rec.seq = total
		if total-m.lastAppraise >= m.retention.Every {
			m.appraiseLocked(total)
		}
	}
	return nil
}

// detectLatency computes a condition's detection latency at settlement: the
// monitor clock's now minus the latest completion stamp among the intervals
// the condition references (that completion is the decisive event — the
// moment the verdict became computable). ok is false when no referenced
// interval carries a stamp (e.g. a parse failure settled the condition
// before anything completed). Caller holds m.mu. Negative lags (a virtual
// clock stepping backwards) clamp to zero.
func (m *Monitor) detectLatency(cr *condRec) (time.Duration, bool) {
	var decisive time.Time
	for _, name := range cr.refs {
		if rec := m.ivs[name]; rec != nil && rec.doneAt.After(decisive) {
			decisive = rec.doneAt
		}
	}
	if decisive.IsZero() {
		return 0, false
	}
	lat := m.nowFn().Sub(decisive)
	if lat < 0 {
		lat = 0
	}
	return lat, true
}

// AddCondition parses and registers a condition in the monitor DSL. The
// source is compiled exactly once, here; checks reuse the parsed expression.
// The condition waits on each referenced interval not yet complete, or goes
// straight to the ready queue when there is nothing to wait for.
func (m *Monitor) AddCondition(name, src string) error {
	expr, err := monitor.Parse(src)
	if err != nil {
		return err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	// A dropped condition leaves a nil entry, which still reserves the name.
	if _, dup := m.byName[name]; dup {
		return fmt.Errorf("online: condition %q already defined", name)
	}
	cr := &condRec{c: monitor.Condition{Name: name, Src: src, Expr: expr}, idx: len(m.conds)}
	m.conds = append(m.conds, cr)
	// Appending never disturbs a handed-out listing: its cap ends where the
	// new entry begins.
	m.listing = append(m.listing, monitor.Result{Name: name, State: monitor.Pending})
	m.byName[name] = cr
	refs := monitor.Referenced(expr)
	// A reference to a retired interval can never be satisfied: settle now
	// instead of waiting forever. cr.refs stays nil, since the condition
	// never held its intervals.
	for _, ref := range refs {
		if err := m.retiredErrLocked(ref); err != nil {
			m.settle(cr, monitor.Result{Name: name, State: monitor.Failed, Err: err}, nil)
			return nil
		}
	}
	cr.refs = refs
	for _, ref := range refs {
		rec := m.ivs[ref]
		if rec == nil {
			rec = &ivRec{}
			m.ivs[ref] = rec
		}
		rec.refs++
		if !rec.complete {
			cr.missing++
			rec.waiting = append(rec.waiting, cr)
		}
	}
	if cr.missing == 0 {
		m.ready = append(m.ready, cr)
	}
	return nil
}

// Check evaluates all conditions against the current stream prefix and
// returns one result per condition in registration order. Conditions whose
// referenced intervals are not all complete report Pending; every other
// verdict is final and memoized. Only the conditions unblocked since the
// previous Check (or Poll) are evaluated, against a persistent inner monitor
// rebased onto the current snapshot epoch.
//
// The result is a read-only snapshot of the monitor's listing: later
// settlements, AddCondition and retention never change it, and appending to
// it copies (its cap equals its len). A Check with nothing to settle costs
// O(1) and allocates nothing; a Check that settles something copies the
// listing once, O(#conditions).
func (m *Monitor) Check() []monitor.Result {
	m.mu.Lock()
	defer m.mu.Unlock()
	t0 := m.checkStartLocked()
	m.drainLocked()
	m.newResults = nil
	m.shared = true
	out := m.listing[:len(m.listing):len(m.listing)]
	m.checkDoneLocked(t0)
	return out
}

// ownListingLocked makes the listing safe to write in place: if Check has
// handed it out since the last write, it is cloned first. Caller holds m.mu.
func (m *Monitor) ownListingLocked() {
	if m.shared {
		m.listing = slices.Clone(m.listing)
		m.shared = false
	}
}

// drainLocked is the one check loop behind Check and Poll: it evaluates the
// ready queue and runs a retention appraisal when the cadence is due. Caller
// holds m.mu.
func (m *Monitor) drainLocked() {
	m.checkReadyLocked()
	m.maybeRetainLocked()
}

// checkStartLocked and checkDoneLocked bracket a whole Check or Poll body
// (drain, appraisal and handout) for the monitor.check_ns window; both are
// no-ops without a registry. Caller holds m.mu.
func (m *Monitor) checkStartLocked() time.Time {
	if m.checkWin == nil {
		return time.Time{}
	}
	return time.Now()
}

func (m *Monitor) checkDoneLocked(t0 time.Time) {
	if m.checkWin != nil {
		m.checkWin.Observe(time.Since(t0).Nanoseconds())
	}
}

// ensureInnerLocked points the persistent inner monitor at the current
// snapshot epoch, creating or rebasing it as needed. Rebasing preserves
// defined intervals and their cut caches. It cannot fail: every snapshot is
// a view of the stream's one builder, so each interval's home execution is a
// prefix of the new one (CompactBelow keeps the builder as origin). A rebase
// error therefore means that internal invariant broke, and it panics.
func (m *Monitor) ensureInnerLocked() {
	snap := m.stream.Snapshot()
	switch {
	case m.inner == nil:
		m.inner = monitor.NewWithAnalysis(snap.Analysis)
	case m.inner.Analysis() != snap.Analysis:
		if err := m.inner.Rebase(snap.Analysis); err != nil {
			panic(fmt.Sprintf("online: snapshot lineage broken: %v", err))
		}
	}
}

// defineLocked registers a completed interval with the persistent inner
// monitor, once. A Define failure (bogus event IDs) poisons the name: the
// error is recorded and returned to every later reference, so each
// condition touching the interval settles Failed.
func (m *Monitor) defineLocked(name string, rec *ivRec) error {
	if rec.bad != nil {
		return rec.bad
	}
	if rec.defined {
		return nil
	}
	if err := m.inner.Define(name, rec.events); err != nil {
		rec.bad = err
		return err
	}
	rec.defined = true
	return nil
}

// checkReadyLocked drains the ready queue: each unblocked condition has its
// intervals defined (once) and is evaluated with its compiled expression
// against the persistent inner monitor. The snapshot (and its rebase) is
// only taken when something is actually ready, so a Check with nothing to do
// costs O(1).
func (m *Monitor) checkReadyLocked() {
	if len(m.ready) == 0 {
		return
	}
	todo := m.ready
	m.ready = nil
	m.ensureInnerLocked()
	for _, cr := range todo {
		if cr.settled {
			continue
		}
		var defErr error
		for _, ref := range cr.refs {
			// A ready, unsettled condition holds a reference on each of its
			// complete intervals, so none has been released.
			if defErr = m.defineLocked(ref, m.ivs[ref]); defErr != nil {
				break
			}
		}
		if defErr != nil {
			m.settle(cr, monitor.Result{Name: cr.c.Name, State: monitor.Failed, Err: defErr}, nil)
			continue
		}
		res := m.inner.CheckCondition(&cr.c)
		if res.State == monitor.Pending {
			// Defensive: a ready condition has every reference defined, so
			// the inner monitor cannot report Pending; if it ever does,
			// re-queue rather than lose the condition.
			m.ready = append(m.ready, cr)
			continue
		}
		var ce *explain.ConditionExplanation
		if m.explainOn && (res.State == monitor.Holds || res.State == monitor.Violated) {
			// Best-effort: a condition that evaluated cleanly explains
			// cleanly too; if not, settle without evidence rather than
			// failing the verdict.
			ce = m.explainLocked(cr)
		}
		m.settle(cr, res, ce)
	}
}

// explainLocked derives a witness/critical-path explanation for a condition
// over the persistent inner monitor's current analysis. Caller holds m.mu.
func (m *Monitor) explainLocked(cr *condRec) *explain.ConditionExplanation {
	expl := explain.New(m.inner.Analysis())
	expl.Instrument(m.reg)
	ivs := make(map[string]*interval.Interval)
	for _, ref := range cr.refs {
		if iv, ok := m.inner.Interval(ref); ok {
			ivs[ref] = iv
		}
	}
	ce, _ := expl.Condition(&cr.c, ivs)
	return ce
}

// witnessSummary compresses a condition explanation into one log field:
// each atom's verdict with its decisive event pair.
func witnessSummary(ce *explain.ConditionExplanation) string {
	out := ""
	for i, at := range ce.Atoms {
		if i > 0 {
			out += "; "
		}
		rel := "≺"
		if !at.Witness.PairPrecedes {
			rel = "⊀"
		}
		out += fmt.Sprintf("%s=%t [%v %s %v]", at.Expr, at.Held, at.Witness.XEvent, rel, at.Witness.YEvent)
	}
	return out
}

// CompletedIntervals returns the names of the completed intervals, sorted.
func (m *Monitor) CompletedIntervals() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := []string{}
	for name, rec := range m.ivs {
		if rec.complete {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// StrongestBetween reports the maximal relations (under the hierarchy's
// implication order) holding between two completed intervals at the current
// prefix — the compact online answer to Problem 4(ii). By verdict stability
// the answer is final once both intervals are complete. The query runs
// against the persistent inner monitor, sharing its interval definitions and
// cut caches with the check loop.
func (m *Monitor) StrongestBetween(xName, yName string) ([]core.Relation, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	names := [2]string{xName, yName}
	for _, name := range names {
		if err := m.retiredErrLocked(name); err != nil {
			return nil, err
		}
	}
	var recs [2]*ivRec
	for i, name := range names {
		if recs[i] = m.ivs[name]; recs[i] == nil || !recs[i].complete {
			return nil, fmt.Errorf("online: interval %q is not complete", name)
		}
	}
	m.ensureInnerLocked()
	for i, name := range names {
		if err := m.defineLocked(name, recs[i]); err != nil {
			return nil, err
		}
	}
	held, err := m.inner.HeldTable1(xName, yName)
	if err != nil {
		return nil, err
	}
	return hierarchy.Strongest(held), nil
}
