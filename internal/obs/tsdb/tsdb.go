// Package tsdb is a bounded, delta-encoded, in-process time-series store
// for the obs registry: the history layer that turns the monitor's
// instantaneous counters and windows into operable series — "what was the
// violation rate over the last minute", "is detection latency trending up"
// — without any external dependency.
//
// Layout: each named series is a short ring of fixed-capacity chunks. A
// chunk stores its first point raw and every later point as a
// zigzag+varint-encoded (Δt, Δv) pair, which is a few bytes per sample for
// the slowly-moving counters and gauges a sampler produces (timestamps at a
// fixed cadence delta-encode to ~2 bytes; a flat counter's value delta is 1
// byte). When a series exceeds its chunk budget the oldest chunk is evicted
// whole and accounted in Dropped. The series count is the sampled
// registry's instrument count, and no instrument name is minted from
// stream input, so the store is bounded by construction: a sampler left
// running for a week cannot grow the process.
//
// Writes take one store-level mutex (the sampler is the only steady-state
// writer, at human cadences); queries decode on read. The query layer
// answers the aggregations an alert rule needs: instantaneous value, rate
// and increase over a lookback window (counter-reset tolerant), min/max,
// average, and nearest-rank quantiles.
package tsdb

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"
)

// Kind classifies a series: counters are cumulative (rate/increase apply),
// gauges are last-write-wins levels (quantiles/min/max apply). The store
// does not enforce the split — rate over a gauge is computable, just rarely
// meaningful.
type Kind uint8

// The series kinds.
const (
	KindGauge Kind = iota
	KindCounter
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	if k == KindCounter {
		return "counter"
	}
	return "gauge"
}

// Point is one decoded sample: a unix-nanosecond timestamp and an int64
// value (the obs registry's native value type).
type Point struct {
	T int64 `json:"t"` // unix nanoseconds
	V int64 `json:"v"`
}

// Options bounds a Store.
type Options struct {
	// ChunkPoints is the number of points per chunk (default 120 — two
	// minutes of history per chunk at a 1s cadence).
	ChunkPoints int
	// MaxChunks is the number of chunks retained per series (default 8, so
	// the default series holds the last 960 samples).
	MaxChunks int
}

func (o *Options) defaults() {
	if o.ChunkPoints < 2 {
		o.ChunkPoints = 120
	}
	if o.MaxChunks < 1 {
		o.MaxChunks = 8
	}
}

// chunk is one delta-encoded run of points: the first point raw, the rest
// as zigzag-varint (Δt, Δv) pairs in buf.
type chunk struct {
	n              int
	firstT, firstV int64
	lastT, lastV   int64
	buf            []byte
}

// append encodes one point as deltas against the chunk's last point.
func (c *chunk) append(t, v int64) {
	if c.n == 0 {
		c.firstT, c.firstV = t, v
	} else {
		c.buf = binary.AppendVarint(c.buf, t-c.lastT)
		c.buf = binary.AppendVarint(c.buf, v-c.lastV)
	}
	c.lastT, c.lastV = t, v
	c.n++
}

// decodeInto appends the chunk's points to dst.
func (c *chunk) decodeInto(dst []Point) []Point {
	if c.n == 0 {
		return dst
	}
	t, v := c.firstT, c.firstV
	dst = append(dst, Point{T: t, V: v})
	buf := c.buf
	for len(buf) > 0 {
		dt, n := binary.Varint(buf)
		buf = buf[n:]
		dv, n := binary.Varint(buf)
		buf = buf[n:]
		t += dt
		v += dv
		dst = append(dst, Point{T: t, V: v})
	}
	return dst
}

// series is one named series: a bounded slice of chunks, oldest first.
type series struct {
	kind    Kind
	chunks  []*chunk
	dropped int64 // points evicted with their chunk
}

func (s *series) points() []Point {
	var n int
	for _, c := range s.chunks {
		n += c.n
	}
	out := make([]Point, 0, n)
	for _, c := range s.chunks {
		out = c.decodeInto(out)
	}
	return out
}

// Store is the time-series store. Safe for concurrent use; a nil Store is a
// no-op on the write side, like the obs instruments it samples.
type Store struct {
	opts Options

	mu     sync.Mutex
	series map[string]*series
}

// NewStore builds an empty store. The zero Options select the defaults
// (120-point chunks, 8 chunks per series).
func NewStore(opts Options) *Store {
	opts.defaults()
	return &Store{opts: opts, series: make(map[string]*series)}
}

// Append records one sample into the named series, creating it with the
// given kind on first use (the first registration's kind wins, matching the
// obs registry convention). Timestamps should be non-decreasing per series;
// the store does not reorder. No-op on a nil store.
func (st *Store) Append(name string, kind Kind, at time.Time, v int64) {
	if st == nil {
		return
	}
	t := at.UnixNano()
	st.mu.Lock()
	defer st.mu.Unlock()
	s, ok := st.series[name]
	if !ok {
		s = &series{kind: kind}
		st.series[name] = s
	}
	if len(s.chunks) == 0 || s.chunks[len(s.chunks)-1].n >= st.opts.ChunkPoints {
		s.chunks = append(s.chunks, &chunk{})
		if len(s.chunks) > st.opts.MaxChunks {
			s.dropped += int64(s.chunks[0].n)
			s.chunks = s.chunks[1:]
		}
	}
	s.chunks[len(s.chunks)-1].append(t, v)
}

// Names returns the sorted series names.
func (st *Store) Names() []string {
	if st == nil {
		return nil
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	out := make([]string, 0, len(st.series))
	for name := range st.series {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Kind reports the kind of a series; false when the series does not exist.
func (st *Store) Kind(name string) (Kind, bool) {
	if st == nil {
		return 0, false
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	s, ok := st.series[name]
	if !ok {
		return 0, false
	}
	return s.kind, true
}

// Query returns the series' points with from ≤ T ≤ to, oldest first. A zero
// from/to means unbounded on that side. Nil when the series is unknown.
func (st *Store) Query(name string, from, to time.Time) []Point {
	pts, _ := st.queryPoints(name)
	if pts == nil {
		return nil
	}
	lo, hi := 0, len(pts)
	if !from.IsZero() {
		f := from.UnixNano()
		lo = sort.Search(len(pts), func(i int) bool { return pts[i].T >= f })
	}
	if !to.IsZero() {
		t := to.UnixNano()
		hi = sort.Search(len(pts), func(i int) bool { return pts[i].T > t })
	}
	if lo >= hi {
		return []Point{}
	}
	return pts[lo:hi]
}

// queryPoints decodes a full series under the lock.
func (st *Store) queryPoints(name string) ([]Point, Kind) {
	if st == nil {
		return nil, 0
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	s, ok := st.series[name]
	if !ok {
		return nil, 0
	}
	return s.points(), s.kind
}

// Latest returns the newest point of the series; false when the series is
// unknown or empty.
func (st *Store) Latest(name string) (Point, bool) {
	if st == nil {
		return Point{}, false
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	s, ok := st.series[name]
	if !ok || len(s.chunks) == 0 {
		return Point{}, false
	}
	c := s.chunks[len(s.chunks)-1]
	if c.n == 0 {
		return Point{}, false
	}
	return Point{T: c.lastT, V: c.lastV}, true
}

// window returns the points with now-lookback ≤ T ≤ now.
func (st *Store) window(name string, lookback time.Duration, now time.Time) []Point {
	return st.Query(name, now.Add(-lookback), now)
}

// Increase reports the counter-reset-tolerant increase over the lookback
// window ending at now: the sum of positive deltas between consecutive
// in-window samples. ok is false with fewer than two in-window samples.
func (st *Store) Increase(name string, lookback time.Duration, now time.Time) (int64, bool) {
	pts := st.window(name, lookback, now)
	if len(pts) < 2 {
		return 0, false
	}
	var inc int64
	for i := 1; i < len(pts); i++ {
		if d := pts[i].V - pts[i-1].V; d > 0 {
			inc += d
		}
	}
	return inc, true
}

// Rate reports the per-second rate of increase over the lookback window
// ending at now (Increase divided by the actual sampled span). ok is false
// with fewer than two in-window samples or a zero span.
func (st *Store) Rate(name string, lookback time.Duration, now time.Time) (float64, bool) {
	pts := st.window(name, lookback, now)
	if len(pts) < 2 {
		return 0, false
	}
	span := time.Duration(pts[len(pts)-1].T - pts[0].T).Seconds()
	if span <= 0 {
		return 0, false
	}
	var inc int64
	for i := 1; i < len(pts); i++ {
		if d := pts[i].V - pts[i-1].V; d > 0 {
			inc += d
		}
	}
	return float64(inc) / span, true
}

// MinMax reports the extreme sample values over the lookback window ending
// at now; ok is false with no in-window samples.
func (st *Store) MinMax(name string, lookback time.Duration, now time.Time) (min, max int64, ok bool) {
	pts := st.window(name, lookback, now)
	if len(pts) == 0 {
		return 0, 0, false
	}
	min, max = pts[0].V, pts[0].V
	for _, p := range pts[1:] {
		if p.V < min {
			min = p.V
		}
		if p.V > max {
			max = p.V
		}
	}
	return min, max, true
}

// Avg reports the mean sample value over the lookback window ending at now;
// ok is false with no in-window samples.
func (st *Store) Avg(name string, lookback time.Duration, now time.Time) (float64, bool) {
	pts := st.window(name, lookback, now)
	if len(pts) == 0 {
		return 0, false
	}
	var sum int64
	for _, p := range pts {
		sum += p.V
	}
	return float64(sum) / float64(len(pts)), true
}

// Quantile reports the nearest-rank q-quantile (0 ≤ q ≤ 1) of the sample
// values over the lookback window ending at now; ok is false with no
// in-window samples.
func (st *Store) Quantile(name string, q float64, lookback time.Duration, now time.Time) (int64, bool) {
	pts := st.window(name, lookback, now)
	if len(pts) == 0 {
		return 0, false
	}
	vs := make([]int64, len(pts))
	for i, p := range pts {
		vs[i] = p.V
	}
	sort.Slice(vs, func(i, j int) bool { return vs[i] < vs[j] })
	idx := int(q*float64(len(vs))+0.5) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(vs) {
		idx = len(vs) - 1
	}
	return vs[idx], true
}

// SeriesDump is one serialized series of a Dump.
type SeriesDump struct {
	Name    string  `json:"name"`
	Kind    string  `json:"kind"`
	Dropped int64   `json:"dropped,omitempty"`
	Points  []Point `json:"points"`
}

// Dump is the serialized tail of a store: the last tailPoints samples of
// every series, sorted by name — the shape embedded in benchtab's JSON
// report, flight-recorder bundles, and the /debug/tsdb full dump.
type Dump struct {
	TakenAtNS int64        `json:"taken_at_ns"`
	Series    []SeriesDump `json:"series"`
}

// Dump captures the last tailPoints samples of every series (everything
// retained when tailPoints <= 0), consistently under one lock. Nil on a nil
// store.
func (st *Store) Dump(tailPoints int, now time.Time) *Dump {
	if st == nil {
		return nil
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	names := make([]string, 0, len(st.series))
	for name := range st.series {
		names = append(names, name)
	}
	sort.Strings(names)
	d := &Dump{TakenAtNS: now.UnixNano()}
	for _, name := range names {
		s := st.series[name]
		pts := s.points()
		if tailPoints > 0 && len(pts) > tailPoints {
			pts = pts[len(pts)-tailPoints:]
		}
		d.Series = append(d.Series, SeriesDump{
			Name: name, Kind: s.kind.String(), Dropped: s.dropped, Points: pts,
		})
	}
	return d
}

// WriteJSON writes the dump as indented JSON — the -tsdb-out file format
// and the CI artifact shape.
func (d *Dump) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(d)
}

// Stats summarizes the store for logs and debug endpoints.
type Stats struct {
	Series  int   `json:"series"`
	Points  int   `json:"points"`
	Bytes   int   `json:"bytes"` // encoded chunk bytes (excludes map/struct overhead)
	Dropped int64 `json:"dropped"`
}

// Stats reports the store's current size.
func (st *Store) Stats() Stats {
	if st == nil {
		return Stats{}
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	var s Stats
	s.Series = len(st.series)
	for _, sr := range st.series {
		s.Dropped += sr.dropped
		for _, c := range sr.chunks {
			s.Points += c.n
			s.Bytes += len(c.buf) + 5*8 // raw first/last fields
		}
	}
	return s
}

// ParseKind maps a dump's kind string back to a Kind.
func ParseKind(s string) (Kind, error) {
	switch s {
	case "counter":
		return KindCounter, nil
	case "gauge":
		return KindGauge, nil
	}
	return 0, fmt.Errorf("tsdb: unknown series kind %q", s)
}
