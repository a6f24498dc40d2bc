package online

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"time"

	"causet/internal/monitor"
	"causet/internal/poset"
)

// RetentionPolicy bounds the memory of a long-running Monitor. With a policy
// set (SetRetention), the monitor periodically appraises its state: settled
// intervals age out of a window and are released, idle growing intervals can
// be abandoned (opt-in), and the stream is compacted below the greatest
// prefix nothing live still needs. Verdicts are unchanged by release and
// compaction — settled verdicts are final by verdict stability, and the
// watermark never passes an event a pending condition could still consult
// (the differential agreement suite and FuzzCompactionAgreement pin this).
// Abandonment is the one knob that does change verdicts (waiting conditions
// settle Failed), which is why it defaults to off.
type RetentionPolicy struct {
	// MaxEvents releases a settled completed interval once this many stream
	// events have been appended since its completion (or since the last
	// condition referencing it settled, whichever is later). 0 disables the
	// event-count window.
	MaxEvents int

	// MaxAge is the duration analogue of MaxEvents, measured on the
	// monitor's clock (SetNow). 0 disables the age window. When both
	// windows are set, either one expiring releases the interval.
	MaxAge time.Duration

	// AbandonAfter evicts a growing interval that has seen no Observe for
	// this many appended events, settling every condition waiting on it as
	// Failed and counting monitor.abandoned_intervals. 0 (the default)
	// never abandons: abandonment changes verdicts, so it is strictly
	// opt-in.
	AbandonAfter int

	// DropSettled additionally releases the per-condition state (compiled
	// expression, verdict, explanation) of settled conditions once they age
	// out of the same window. What remains is a tombstone that only reserves
	// the name, so the condition can never be re-added and settled twice.
	// Check stops listing dropped conditions — use Poll, which reports each
	// verdict exactly once, as the delivery path.
	DropSettled bool

	// Every is the appraisal cadence in appended events (default 256).
	// Lower values bound memory tighter at more compaction overhead.
	Every int
}

// SetRetention enables retention under the given policy. It is incompatible
// with explanation capture (critical-path walks revisit history the
// watermark may have dropped). At least one of MaxEvents / MaxAge must be
// positive.
func (m *Monitor) SetRetention(p RetentionPolicy) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.explainOn {
		return errors.New("online: retention is incompatible with explanation capture")
	}
	if p.MaxEvents <= 0 && p.MaxAge <= 0 {
		return errors.New("online: retention policy must set MaxEvents or MaxAge")
	}
	if p.Every <= 0 {
		p.Every = 256
	}
	total := m.stream.TotalEvents()
	if !m.retainOn {
		// State that predates retention enters the window now.
		now := m.nowFn()
		for _, rec := range m.ivs {
			rec.seq = total
		}
		for _, cr := range m.conds {
			if cr.settled {
				cr.seq, cr.at = total, now
			}
		}
	}
	m.retention = p
	m.retainOn = true
	m.lastAppraise = total
	return nil
}

// RetentionStats is a point-in-time summary of the retention subsystem, for
// dashboards and tests.
type RetentionStats struct {
	Enabled   bool
	Policy    RetentionPolicy
	Watermark []int // last applied compaction watermark (nil before the first)
	Released  int   // settled intervals released so far
	Abandoned int   // growing intervals abandoned so far
	Held      int   // completed intervals currently retained
	Growing   int   // intervals currently growing
	Retained  int   // stream events currently carrying per-event state
}

// RetentionStats reports the current retention state. Cheap enough for a
// dashboard refresh; Retained takes the stream lock.
func (m *Monitor) RetentionStats() RetentionStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	st := RetentionStats{
		Enabled:   m.retainOn,
		Policy:    m.retention,
		Released:  len(m.released),
		Abandoned: len(m.abandoned),
		Retained:  m.stream.RetainedEvents(),
	}
	if m.watermark != nil {
		st.Watermark = append([]int(nil), m.watermark...)
	}
	for _, rec := range m.ivs {
		switch {
		case rec.complete:
			st.Held++
		case rec.observed:
			st.Growing++
		}
	}
	return st
}

// Poll runs the check loop and returns only the conditions that settled
// since the previous Poll (or Check, which also consumes the delta); the
// slice is the caller's to keep. Its cost follows what settled: unlike a
// settling Check it never copies the O(#conditions) listing, and under
// DropSettled it is the path that reports every verdict exactly once.
func (m *Monitor) Poll() []monitor.Result {
	m.mu.Lock()
	defer m.mu.Unlock()
	t0 := m.checkStartLocked()
	m.drainLocked()
	out := m.newResults
	m.newResults = nil
	m.checkDoneLocked(t0)
	return out
}

// CompactNow forces a retention appraisal immediately, ignoring the Every
// cadence: abandonment, releases, and stream compaction all run. Test hook
// and shutdown aid; a no-op without a policy.
func (m *Monitor) CompactNow() {
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.retainOn {
		return
	}
	m.appraiseLocked(m.stream.TotalEvents())
}

// retiredErrLocked returns the error every operation on a retired interval
// name gets, or nil if the name was never retired. Caller holds m.mu.
func (m *Monitor) retiredErrLocked(name string) error {
	why := "released"
	if _, ok := m.released[name]; !ok {
		if _, ok := m.abandoned[name]; !ok {
			return nil
		}
		why = "abandoned"
	}
	return fmt.Errorf("online: interval %q was %s by retention", name, why)
}

// maybeRetainLocked runs an appraisal when the cadence says so. Caller
// holds m.mu.
func (m *Monitor) maybeRetainLocked() {
	if !m.retainOn {
		return
	}
	total := m.stream.TotalEvents()
	if total-m.lastAppraise < m.retention.Every {
		return
	}
	m.appraiseLocked(total)
}

// outOfWindowLocked reports whether a retention window starting at (seq, at)
// has expired at stream position total / clock now.
func (m *Monitor) outOfWindowLocked(total int, now time.Time, seq int, at time.Time) bool {
	if m.retention.MaxEvents > 0 && total-seq > m.retention.MaxEvents {
		return true
	}
	if m.retention.MaxAge > 0 && !at.IsZero() && now.Sub(at) > m.retention.MaxAge {
		return true
	}
	return false
}

// appraiseLocked is one retention pass: abandon idle growing intervals
// (opt-in), release settled intervals out of the window, drop settled
// condition state (opt-in), then compact the stream below everything still
// needed. Caller holds m.mu.
func (m *Monitor) appraiseLocked(total int) {
	m.lastAppraise = total
	now := m.nowFn()

	// 1. Abandonment (opt-in): growing intervals nobody has touched for
	// AbandonAfter events will plausibly never complete; evict them and
	// fail their waiters so the waiters stop pinning memory too.
	if m.retention.AbandonAfter > 0 {
		for name, rec := range m.ivs {
			if !rec.observed || rec.complete || total-rec.seq <= m.retention.AbandonAfter {
				continue
			}
			delete(m.ivs, name)
			m.abandoned[name] = struct{}{}
			m.metAbandoned.Add(1)
			if m.logOn(slog.LevelWarn) {
				m.lg.LogAttrs(context.TODO(), slog.LevelWarn, "interval_abandoned",
					slog.String("interval", name), slog.Int("idle_events", total-rec.seq))
			}
			err := m.retiredErrLocked(name)
			for _, cr := range rec.waiting {
				if !cr.settled {
					m.settle(cr, monitor.Result{Name: cr.c.Name, State: monitor.Failed, Err: err}, nil)
				}
			}
		}
	}

	// 2. Release settled completed intervals. refs > 0 means an unsettled
	// condition still references the interval — its events and completion
	// stamp must survive (the stamp is what keeps detection-latency samples
	// honest for conditions that settle during a compaction epoch). The
	// window restarts at last use (the final referencing settlement), so
	// StrongestBetween queried at settlement time always finds its operands.
	for name, rec := range m.ivs {
		if !rec.complete || rec.refs > 0 || !m.outOfWindowLocked(total, now, rec.seq, rec.at) {
			continue
		}
		delete(m.ivs, name)
		if rec.defined {
			m.inner.Undefine(name)
		}
		m.released[name] = struct{}{}
		m.metReleased.Add(1)
	}

	// 3. Drop settled condition state (opt-in). Only a nil entry in byName
	// stays, reserving the name; the compiled expression and the verdict go.
	// conds and the listing compact together, and the listing is cloned at
	// the first drop if Check handed it out, so no write reaches a caller's
	// snapshot.
	if m.retention.DropSettled {
		kept := 0
		for _, cr := range m.conds {
			if cr.settled && m.outOfWindowLocked(total, now, cr.seq, cr.at) {
				m.byName[cr.c.Name] = nil
				m.ownListingLocked()
				continue
			}
			if kept != cr.idx {
				m.conds[kept], m.listing[kept] = cr, m.listing[cr.idx]
				cr.idx = kept
			}
			kept++
		}
		if kept < len(m.conds) {
			clear(m.conds[kept:])
			clear(m.listing[kept:])
			m.conds, m.listing = m.conds[:kept], m.listing[:kept]
		}
	}

	// 4. Compact the stream below everything still needed: every retained
	// completed interval, every growing interval. The stream further clamps
	// to pins, the frontier, and the greatest consistent cut.
	w := make([]int, m.stream.NumProcs())
	counts := m.stream.Counts()
	for p := range w {
		if w[p] = counts[p] - 1; w[p] < 0 {
			w[p] = 0
		}
	}
	hold := func(events []poset.EventID) {
		for _, e := range events {
			if e.Proc >= 0 && e.Proc < len(w) && e.Pos-1 < w[e.Proc] {
				w[e.Proc] = e.Pos - 1
			}
		}
	}
	for _, rec := range m.ivs {
		hold(rec.events)
	}
	applied, _, err := m.stream.Compact(w)
	if err != nil {
		// Compact only rejects a watermark of the wrong width, and w is
		// sized from the stream itself; should that ever change, surface the
		// error rather than wedge the monitor.
		if m.logOn(slog.LevelError) {
			m.lg.LogAttrs(context.TODO(), slog.LevelError, "compaction_failed", slog.Any("err", err))
		}
		return
	}
	m.watermark = applied
}
