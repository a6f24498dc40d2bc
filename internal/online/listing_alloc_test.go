//go:build !race

package online

import (
	"fmt"
	"testing"

	"causet/internal/obs"
)

// TestIdleCheckZeroAllocs is the deterministic cost gate for the idle Check:
// with nothing ready it hands out the persistent listing, so it allocates
// nothing whether one condition or 1,024 are registered, instrumented or
// not. Half the conditions are settled and half wait on an interval that
// never completes, so the listing mixes verdicts and Pending entries.
func TestIdleCheckZeroAllocs(t *testing.T) {
	for _, n := range []int{1, 1024} {
		for _, instrumented := range []bool{false, true} {
			t.Run(fmt.Sprintf("conds=%d/instrumented=%t", n, instrumented), func(t *testing.T) {
				m := listingFixture(t, "A", "B", "Z")
				if instrumented {
					m.Instrument(obs.New())
				}
				mustComplete(t, m, "A", "B")
				for i := 0; i < n; i++ {
					src := "R1(A, B)"
					if i%2 == 1 {
						src = "R1(A, Z)"
					}
					mustAdd(t, m, fmt.Sprintf("c%d", i), src)
				}
				if got := len(m.Check()); got != n {
					t.Fatalf("Check listed %d conditions, want %d", got, n)
				}
				if allocs := testing.AllocsPerRun(100, func() { m.Check() }); allocs != 0 {
					t.Errorf("idle Check: %.1f allocs/op, want 0", allocs)
				}
			})
		}
	}
}
