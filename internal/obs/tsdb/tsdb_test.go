package tsdb

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"
)

// at is the test epoch; all series timestamps offset from it.
var at = time.Unix(1_700_000_000, 0)

func TestAppendQueryRoundTrip(t *testing.T) {
	st := NewStore(Options{})
	want := make([]Point, 0, 300)
	v := int64(0)
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 300; i++ {
		ts := at.Add(time.Duration(i) * time.Second)
		v += r.Int63n(17) - 3 // mixed-sign deltas exercise the zigzag encoding
		st.Append("s", KindGauge, ts, v)
		want = append(want, Point{T: ts.UnixNano(), V: v})
	}
	got := st.Query("s", time.Time{}, time.Time{})
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip mismatch: got %d points, want %d (first diff search it)", len(got), len(want))
	}
	// Bounded range query.
	from, to := at.Add(10*time.Second), at.Add(20*time.Second)
	got = st.Query("s", from, to)
	if len(got) != 11 {
		t.Fatalf("range query: got %d points, want 11", len(got))
	}
	if got[0].T != from.UnixNano() || got[10].T != to.UnixNano() {
		t.Fatalf("range bounds wrong: %v..%v", got[0].T, got[10].T)
	}
}

func TestBoundedEviction(t *testing.T) {
	st := NewStore(Options{ChunkPoints: 10, MaxChunks: 3})
	for i := 0; i < 100; i++ {
		st.Append("s", KindCounter, at.Add(time.Duration(i)*time.Second), int64(i))
	}
	pts := st.Query("s", time.Time{}, time.Time{})
	if len(pts) > 30 {
		t.Fatalf("store retained %d points, budget is 30", len(pts))
	}
	// The retained tail must be the newest samples, contiguous.
	last := pts[len(pts)-1]
	if last.V != 99 {
		t.Fatalf("newest point lost: last value %d, want 99", last.V)
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].V != pts[i-1].V+1 {
			t.Fatalf("retained points not contiguous at %d: %v -> %v", i, pts[i-1], pts[i])
		}
	}
	stats := st.Stats()
	if stats.Dropped != int64(100-len(pts)) {
		t.Fatalf("Dropped = %d, want %d", stats.Dropped, 100-len(pts))
	}
}

func TestRateIncreaseAndReset(t *testing.T) {
	st := NewStore(Options{})
	// 10 samples 1s apart, counter climbing 5/tick, with a reset at i=6.
	v := int64(0)
	for i := 0; i < 10; i++ {
		if i == 6 {
			v = 2 // counter reset (restart)
		} else if i > 0 {
			v += 5
		}
		st.Append("c", KindCounter, at.Add(time.Duration(i)*time.Second), v)
	}
	now := at.Add(9 * time.Second)
	inc, ok := st.Increase("c", 20*time.Second, now)
	if !ok {
		t.Fatal("Increase not ok")
	}
	// 8 positive 5-deltas plus the post-reset climb from 2: i1..i5 (+25),
	// reset ignored, i7..i9 (+15), plus nothing else = 40.
	if inc != 40 {
		t.Fatalf("Increase = %d, want 40 (reset-tolerant)", inc)
	}
	rate, ok := st.Rate("c", 20*time.Second, now)
	if !ok || rate != float64(40)/9 {
		t.Fatalf("Rate = %v ok=%v, want %v", rate, ok, float64(40)/9)
	}
	// Window narrower than the series: only the last 3 samples (i=7,8,9).
	inc, ok = st.Increase("c", 2*time.Second, now)
	if !ok || inc != 10 {
		t.Fatalf("windowed Increase = %d ok=%v, want 10", inc, ok)
	}
	if _, ok := st.Rate("missing", time.Second, now); ok {
		t.Fatal("Rate of unknown series reported ok")
	}
}

func TestQuantileMinMaxAvg(t *testing.T) {
	st := NewStore(Options{})
	vals := []int64{9, 1, 7, 3, 5}
	for i, v := range vals {
		st.Append("g", KindGauge, at.Add(time.Duration(i)*time.Second), v)
	}
	now := at.Add(4 * time.Second)
	if v, ok := st.Quantile("g", 0.5, time.Minute, now); !ok || v != 5 {
		t.Fatalf("p50 = %d ok=%v, want 5", v, ok)
	}
	if v, ok := st.Quantile("g", 0.99, time.Minute, now); !ok || v != 9 {
		t.Fatalf("p99 = %d ok=%v, want 9", v, ok)
	}
	lo, hi, ok := st.MinMax("g", time.Minute, now)
	if !ok || lo != 1 || hi != 9 {
		t.Fatalf("MinMax = %d,%d ok=%v, want 1,9", lo, hi, ok)
	}
	if v, ok := st.Avg("g", time.Minute, now); !ok || v != 5 {
		t.Fatalf("Avg = %v ok=%v, want 5", v, ok)
	}
	if p, ok := st.Latest("g"); !ok || p.V != 5 {
		t.Fatalf("Latest = %v ok=%v, want V=5", p, ok)
	}
}

func TestDumpTail(t *testing.T) {
	st := NewStore(Options{})
	for i := 0; i < 50; i++ {
		st.Append("a", KindCounter, at.Add(time.Duration(i)*time.Second), int64(i))
	}
	st.Append("b", KindGauge, at, 7)
	d := st.Dump(10, at.Add(time.Hour))
	if len(d.Series) != 2 {
		t.Fatalf("dump has %d series, want 2", len(d.Series))
	}
	if d.Series[0].Name != "a" || d.Series[1].Name != "b" {
		t.Fatalf("dump series order %q, %q", d.Series[0].Name, d.Series[1].Name)
	}
	if len(d.Series[0].Points) != 10 || d.Series[0].Points[9].V != 49 {
		t.Fatalf("tail dump wrong: %d points, last %v", len(d.Series[0].Points), d.Series[0].Points[len(d.Series[0].Points)-1])
	}
	if d.Series[0].Kind != "counter" || d.Series[1].Kind != "gauge" {
		t.Fatalf("kinds %q/%q", d.Series[0].Kind, d.Series[1].Kind)
	}
	if k, err := ParseKind(d.Series[0].Kind); err != nil || k != KindCounter {
		t.Fatalf("ParseKind: %v %v", k, err)
	}
	if _, err := ParseKind("bogus"); err == nil {
		t.Fatal("ParseKind accepted bogus")
	}
}

func TestNilStoreSafe(t *testing.T) {
	var st *Store
	st.Append("x", KindGauge, at, 1) // must not panic
	if st.Names() != nil {
		t.Fatal("nil store has names")
	}
	if _, ok := st.Latest("x"); ok {
		t.Fatal("nil store has a latest point")
	}
	if st.Dump(0, at) != nil {
		t.Fatal("nil store dumped")
	}
	if st.Stats() != (Stats{}) {
		t.Fatal("nil store has stats")
	}
}

func TestConcurrentAppendQuery(t *testing.T) {
	st := NewStore(Options{ChunkPoints: 16, MaxChunks: 4})
	var writers sync.WaitGroup
	for w := 0; w < 4; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			name := []string{"a", "b"}[w%2]
			for i := 0; i < 2000; i++ {
				st.Append(name, KindCounter, at.Add(time.Duration(i)*time.Millisecond), int64(i))
			}
		}(w)
	}
	stop := make(chan struct{})
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		for {
			select {
			case <-stop:
				return
			default:
			}
			st.Query("a", time.Time{}, time.Time{})
			st.Rate("b", time.Second, at.Add(2*time.Second))
			st.Dump(8, at)
			st.Stats()
		}
	}()
	writers.Wait()
	close(stop)
	<-readerDone
}
