package bisect

import (
	"math/rand"
	"sync"
	"testing"

	"torusnet/internal/placement"
	"torusnet/internal/torus"
)

// retainedNodes is the node count the table cache holds, checked against
// the entries themselves.
func retainedNodes(t *testing.T) int {
	t.Helper()
	tables.Lock()
	defer tables.Unlock()
	sum := 0
	for el := tables.lru.Front(); el != nil; el = el.Next() {
		sum += el.Value.(*tableEntry).nodes
	}
	if sum != tables.nodes || len(tables.byShape) != tables.lru.Len() {
		t.Fatalf("cache books %d nodes in %d entries, entries hold %d in %d",
			tables.nodes, len(tables.byShape), sum, tables.lru.Len())
	}
	return sum
}

func TestTableCacheConcurrentAndBounded(t *testing.T) {
	// Ring and plane shapes whose tables total twice the budget.
	var tori []*torus.Torus
	total := 0
	for k := 2; total <= 2*tableBudget; k++ {
		tr := torus.New(k, 2)
		tori = append(tori, tr, torus.New(k, 1))
		total += tr.Nodes() + k
	}
	type want struct{ sweep, best int }
	wants := make([]want, len(tori))
	places := make([]*placement.Placement, len(tori))
	for i, tr := range tori {
		places[i] = build(t, placement.Random{Count: tr.Nodes()/7 + 2, Seed: int64(i)}, tr)
		wants[i] = want{sweepOracle(places[i]).Width(), bestSweepOracle(places[i]).Width()}
	}

	const workers = 8
	var wg sync.WaitGroup
	errs := make(chan string, workers*len(tori))
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for j := range tori {
				i := (j*(w+1) + w) % len(tori) // every worker a different order
				p := places[i]
				s, b := Sweep(p), BestSweep(p)
				if s.Width() != wants[i].sweep || b.Width() != wants[i].best {
					errs <- p.String()
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Errorf("%s: concurrent sweep disagrees with the oracle", e)
	}
	if got := retainedNodes(t); got > tableBudget {
		t.Fatalf("cache retains %d nodes, budget %d", got, tableBudget)
	}
}

func TestTableOverBudgetNotRetained(t *testing.T) {
	tr := torus.New(257, 2) // 66 049 nodes
	p := build(t, placement.Linear{C: 0}, tr)
	before := retainedNodes(t)
	if c := Sweep(p); !c.Balanced() || c.Width() > SweepCeiling(tr) {
		t.Fatalf("over-budget sweep: %s", c)
	}
	tables.Lock()
	_, kept := tables.byShape[shape{257, 2}]
	tables.Unlock()
	if kept || retainedNodes(t) != before {
		t.Fatal("a torus over the budget was cached")
	}
}

func TestSweepAndDimensionCutAllocsIndependentOfSize(t *testing.T) {
	// On a warmed shape, Sweep and BestDimensionCut allocate the processor
	// rank scratch, two cuts and one method name — however large k^d is.
	for _, c := range []struct{ k, d int }{{8, 2}, {16, 2}, {8, 3}, {6, 4}} {
		tr := torus.New(c.k, c.d)
		p := build(t, placement.Random{Count: tr.Nodes() / c.k, Seed: 3}, tr)
		Sweep(p)
		allocs := testing.AllocsPerRun(50, func() {
			Sweep(p)
			BestDimensionCut(p)
		})
		if allocs > 4 {
			t.Errorf("T^%d_%d: Sweep + BestDimensionCut allocate %v times, want ≤ 4", c.d, c.k, allocs)
		}
		if allocs := testing.AllocsPerRun(50, func() { BestSweep(p) }); allocs > 2 {
			t.Errorf("T^%d_%d: BestSweep allocates %v times, want ≤ 2", c.d, c.k, allocs)
		}
	}
}

func TestTableWidthsMatchPrefixRecount(t *testing.T) {
	for _, c := range []struct{ k, d int }{{2, 3}, {3, 3}, {4, 2}, {5, 2}, {2, 1}, {3, 1}} {
		tr := torus.New(c.k, c.d)
		tb := TableFor(tr)
		order := sortedBySweepKey(tr)
		full := build(t, placement.Full{}, tr)
		for n := 0; n <= tr.Nodes(); n++ {
			if n < tr.Nodes() && tb.Rank(order[n]) != n {
				t.Fatalf("T^%d_%d: rank of order[%d] is %d", c.d, c.k, n, tb.Rank(order[n]))
			}
			if want := prefixCutOracle(full, order, n, "").Width(); tb.Width(n) != want {
				t.Fatalf("T^%d_%d: prefix %d width %d, recount %d", c.d, c.k, n, tb.Width(n), want)
			}
		}
	}
}

func TestSelectRank(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for n := 1; n <= 40; n++ {
		for i := 0; i < n; i++ {
			shuffled, sorted := make([]int32, n), make([]int32, n)
			for j, v := range rng.Perm(n) {
				shuffled[j], sorted[j] = int32(3*v), int32(3*j)
			}
			for _, a := range [][]int32{shuffled, sorted} {
				got := selectRank(a, i)
				if got != int32(3*i) || a[i] != got {
					t.Fatalf("n=%d i=%d: selected %d at a[i]=%d, want %d", n, i, got, a[i], 3*i)
				}
				for j, v := range a {
					if j != i && (j < i) != (v < got) {
						t.Fatalf("n=%d i=%d: a[%d]=%d on the wrong side of %d", n, i, j, v, got)
					}
				}
			}
		}
	}
}
