package core

import (
	"sync"
	"sync/atomic"

	"causet/internal/interval"
	"causet/internal/obs"
	"causet/internal/poset"
	"causet/internal/vclock"
)

// CutStore is the epoch-free cut cache of one growing execution (an
// online.Stream): the cuts that never change as the execution grows, built
// once and served to every later snapshot epoch. Down-cuts and the extremal
// positions are functions of the past; up-cuts are too once every component
// names a known first follower (IntervalCuts.upStable, DESIGN.md S25). Such
// cuts — and the proxy cuts with the same property — are facts about the
// stream, not about an epoch, so they live here instead of being copied
// from epoch to epoch. This is Key Idea 1 (an interval's cuts are computed
// once and reused against many others) applied across epochs.
//
// Analysis makes one epoch's Analysis in O(1); its lookups consult the store
// first and fall through to the epoch's own cut cache for cuts that are not
// yet stable. An entry enters the store once, when a build
// comes out stable, and leaves when Compact passes any of its interval's
// events.
//
// A CutStore is safe for concurrent use: Analyses of old epochs may keep
// querying it while newer epochs add entries and Compact removes them.
type CutStore struct {
	mu    sync.RWMutex
	m     map[*interval.Interval]*storeEntry
	base  []int // compaction watermark; nil until the first Compact
	epoch atomic.Uint64

	// met holds the instruments every epoch's Analysis shares; nil after
	// Instrument until the next Analysis interns them from reg and tr.
	met *analysisObs
	reg *obs.Registry
	tr  *obs.Tracer
}

// storeEntry holds the stable cuts of one interval. Each slot records the
// epoch that added it: an Analysis of an earlier epoch must not read it,
// because a cut that is stable at epoch k may name a first follower beyond
// an earlier prefix, where a cold build would give that prefix's TopPos.
type storeEntry struct {
	ic         *IntervalCuts
	proxy      [2]*ProxyCuts // indexed by interval.ProxyKind
	epoch      uint64
	proxyEpoch [2]uint64
}

// NewCutStore returns an empty, uninstrumented store.
func NewCutStore() *CutStore {
	return &CutStore{m: make(map[*interval.Interval]*storeEntry), met: &noObs}
}

// Instrument attaches a registry and/or tracer to every Analysis the store
// makes from now on (the instruments of Analysis.Instrument). They are
// interned once, by the next Analysis, not once per epoch.
func (st *CutStore) Instrument(reg *obs.Registry, tr *obs.Tracer) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.met, st.reg, st.tr = nil, reg, tr
}

// Analysis returns the Analysis of the next epoch, over ex with the caller's
// clocks. Epochs must be made in execution order: each ex extends the
// previous one's (the stream's snapshots do). The call is O(1) and
// allocates no cache maps.
func (st *CutStore) Analysis(ex *poset.Execution, clk *vclock.Clocks) *Analysis {
	st.mu.Lock()
	if st.met == nil {
		st.met = newAnalysisObs(st.reg, st.tr)
	}
	met := st.met
	st.mu.Unlock()
	return &Analysis{ex: ex, clk: clk, store: st, epoch: st.epoch.Add(1), met: met}
}

// Len reports the number of intervals (proxy intervals included) with an
// entry in the store.
func (st *CutStore) Len() int {
	st.mu.RLock()
	defer st.mu.RUnlock()
	return len(st.m)
}

// Compact drops every entry whose interval owns an event at or below the
// per-process watermark base, and rejects such entries from then on, and
// returns how many it dropped. The cuts stay mathematically valid, but no
// live condition can query them — a monitor's compaction watermark only
// passes released intervals — and keeping them would pin the intervals
// beyond the retention window.
func (st *CutStore) Compact(base []int) int {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.base = append(st.base[:0], base...)
	n := 0
	for iv := range st.m {
		if st.compactedLocked(iv) {
			delete(st.m, iv)
			n++
		}
	}
	return n
}

// compactedLocked reports whether iv owns an event at or below the
// watermark. Caller holds st.mu.
func (st *CutStore) compactedLocked(iv *interval.Interval) bool {
	if st.base == nil {
		return false
	}
	for _, e := range iv.Events() {
		if e.Pos <= st.base[e.Proc] {
			return true
		}
	}
	return false
}

// cuts returns the stored cuts of iv visible to the given epoch, or nil.
func (st *CutStore) cuts(iv *interval.Interval, epoch uint64) *IntervalCuts {
	st.mu.RLock()
	defer st.mu.RUnlock()
	if e := st.m[iv]; e != nil && e.ic != nil && e.epoch <= epoch {
		return e.ic
	}
	return nil
}

// proxyCuts is cuts for one proxy slot.
func (st *CutStore) proxyCuts(iv *interval.Interval, kind interval.ProxyKind, epoch uint64) *ProxyCuts {
	st.mu.RLock()
	defer st.mu.RUnlock()
	if e := st.m[iv]; e != nil && e.proxy[kind] != nil && e.proxyEpoch[kind] <= epoch {
		return e.proxy[kind]
	}
	return nil
}

// putCuts adds iv's cuts, built at epoch, if they are stable and iv has no
// stored cuts yet. A nil store (an offline Analysis) keeps nothing.
func (st *CutStore) putCuts(iv *interval.Interval, ic *IntervalCuts, epoch uint64) {
	if st == nil || !ic.upStable {
		return
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if e := st.slotLocked(iv); e != nil && e.ic == nil {
		e.ic, e.epoch = ic, epoch
	}
}

// putProxy adds one proxy slot of iv, built at epoch, if its cuts are
// stable and the slot is empty; the proxy interval's own cuts go in with it,
// so a later Cuts(pc.IV) is served from the store too.
func (st *CutStore) putProxy(iv *interval.Interval, kind interval.ProxyKind, pc *ProxyCuts, epoch uint64) {
	if st == nil || !pc.Cuts.upStable {
		return
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	e := st.slotLocked(iv)
	if e == nil || e.proxy[kind] != nil {
		return
	}
	e.proxy[kind], e.proxyEpoch[kind] = pc, epoch
	if pe := st.slotLocked(pc.IV); pe != nil && pe.ic == nil {
		pe.ic, pe.epoch = pc.Cuts, epoch
	}
}

// slotLocked returns iv's entry, creating it, or nil when iv owns a
// compacted event. Caller holds st.mu.
func (st *CutStore) slotLocked(iv *interval.Interval) *storeEntry {
	if st.compactedLocked(iv) {
		return nil
	}
	e := st.m[iv]
	if e == nil {
		e = &storeEntry{}
		st.m[iv] = e
	}
	return e
}
