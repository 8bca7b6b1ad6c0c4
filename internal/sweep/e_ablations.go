package sweep

// Extension experiments E15–E19: ablations beyond the paper's claims,
// probing the design choices the paper leaves implicit (tie-breaking, path
// multiplicity, the uniformity premise, coefficient choice, and the buffer
// economics the load theory ultimately serves).

import (
	"torusnet/internal/bisect"
	"torusnet/internal/load"
	"torusnet/internal/placement"
	"torusnet/internal/routing"
	"torusnet/internal/simnet"
	"torusnet/internal/torus"
)

func init() {
	register(Experiment{
		ID:       "E15",
		Title:    "Ablation: path multiplicity across the routing matrix",
		PaperRef: "extension of §6/§7 (ODR, ODR-multi, UDR, UDR-multi, FAR)",
		Run:      runE15,
	})
	register(Experiment{
		ID:       "E16",
		Title:    "Ablation: tie-breaking rule on even-radix tori",
		PaperRef: "extension of §6 (restricted vs unrestricted correction)",
		Run:      runE16,
	})
	register(Experiment{
		ID:       "E17",
		Title:    "Ablation: relaxing the uniformity premise of Theorem 1",
		PaperRef: "extension of Theorem 1's generalization remark",
		Run:      runE17,
	})
	register(Experiment{
		ID:       "E18",
		Title:    "Ablation: linear placements with general unit coefficients",
		PaperRef: "extension of Definition 10",
		Run:      runE18,
	})
	register(Experiment{
		ID:       "E19",
		Title:    "Ablation: buffer capacity, injection pacing, and deadlock",
		PaperRef: "extension of §1 via the cycle simulator",
		Run:      runE19,
	})
}

var matrixAlgs = []routing.Algorithm{
	routing.ODR{}, routing.ODRMulti{}, routing.UDR{}, routing.UDRMulti{}, routing.FAR{},
}

func runE15(scale Scale) *Table {
	cases := []kd{{6, 2}}
	if scale == Full {
		cases = []kd{{6, 2}, {8, 2}, {4, 3}, {6, 3}, {5, 3}}
	}
	tb := &Table{
		ID:       "E15",
		Title:    "Routing matrix on linear placements: multiplicity vs maximum load",
		PaperRef: "extension of §6/§7",
		Columns:  []string{"d", "k", "routing", "E_max", "E_max/|P|", "mean paths/pair", "max paths/pair"},
	}
	for _, c := range cases {
		t := torus.New(c.k, c.d)
		p := mustPlacement(placement.Linear{C: 0}, t)
		for _, alg := range matrixAlgs {
			res := load.Compute(p, alg, load.Options{})
			meanPaths, maxPaths := 0.0, 0.0
			for _, src := range p.Nodes() {
				for _, dst := range p.Nodes() {
					if src == dst {
						continue
					}
					n := alg.PathCount(t, src, dst)
					meanPaths += n
					if n > maxPaths {
						maxPaths = n
					}
				}
			}
			meanPaths /= float64(p.Pairs())
			tb.AddRow(c.d, c.k, alg.Name(), res.Max, res.Max/float64(p.Size()), meanPaths, maxPaths)
		}
	}
	tb.AddNote("Within the dimension-ordered family, more paths monotonically lower E_max: ODR → ODR-multi → UDR → UDR-multi. FAR, despite having by far the most paths, is NOT uniformly better than UDR (e.g. d=2: 1.73 vs 1.5 at k=6): sampling uniformly over all interleavings concentrates probability on the middle of each p→q routing box (the multinomial peak), re-creating hotspots that UDR's endpoint-hugging staircase paths avoid. Path count alone is a poor proxy for load spreading.")
	return tb
}

func runE16(scale Scale) *Table {
	cases := []kd{{4, 2}, {6, 2}}
	if scale == Full {
		cases = []kd{{4, 2}, {6, 2}, {8, 2}, {4, 3}, {6, 3}}
	}
	tb := &Table{
		ID:       "E16",
		Title:    "Restricted (+)-tie-breaking vs both-direction ties, even k",
		PaperRef: "extension of §6",
		Columns: []string{"d", "k", "E_max ODR", "E_max ODR-multi", "gain",
			"E_max UDR", "E_max UDR-multi", "gain"},
	}
	for _, c := range cases {
		t := torus.New(c.k, c.d)
		p := mustPlacement(placement.Linear{C: 0}, t)
		odr := load.Compute(p, routing.ODR{}, load.Options{}).Max
		odrM := load.Compute(p, routing.ODRMulti{}, load.Options{}).Max
		udr := load.Compute(p, routing.UDR{}, load.Options{}).Max
		udrM := load.Compute(p, routing.UDRMulti{}, load.Options{}).Max
		tb.AddRow(c.d, c.k, odr, odrM, odr/odrM, udr, udrM, udr/udrM)
	}
	tb.AddNote("The paper's restricted rule (break k/2 ties toward +) concentrates tie traffic on one arc; allowing both directions halves the tie load. The effect is a constant factor ≤ 2 — the restricted rule costs something but never the linearity.")
	return tb
}

func runE17(scale Scale) *Table {
	cases := []kd{{6, 2}, {4, 3}}
	if scale == Full {
		cases = []kd{{6, 2}, {8, 2}, {4, 3}, {6, 3}}
	}
	tb := &Table{
		ID:       "E17",
		Title:    "Fully uniform vs single-dimension-uniform vs random placements",
		PaperRef: "extension of Theorem 1's remark",
		Columns: []string{"d", "k", "placement", "uniform dims", "dim-cut balanced",
			"dim-cut width", "sweep width", "E_max UDR", "E_max/|P|"},
	}
	for _, c := range cases {
		t := torus.New(c.k, c.d)
		specs := []placement.Spec{
			placement.Linear{C: 0},
			placement.LayerCluster{Dim: 0},
			placement.Random{Count: t.Nodes() / c.k, Seed: 17},
		}
		for _, spec := range specs {
			p := mustPlacement(spec, t)
			uniformDims := 0
			for dim := 0; dim < c.d; dim++ {
				if p.UniformAlong(dim) {
					uniformDims++
				}
			}
			cut := bisect.DimensionCut(p, 0)
			sweepCut := bisect.Sweep(p)
			res := load.Compute(p, routing.UDR{}, load.Options{})
			tb.AddRow(c.d, c.k, spec.Name(), uniformDims, cut.Balanced(), cut.Width(),
				sweepCut.Width(), res.Max, res.Max/float64(p.Size()))
		}
	}
	tb.AddNote("Uniformity along one dimension already yields the Theorem 1 cut (width 4k^{d-1}, balanced along that dimension); random placements need the sweep for balance. The layer cluster fills every layer along its dimension equally but packs each layer into its smallest nodes, which makes it the hyperplane u_a = 0 of one other dimension a: uniform along the d−1 dimensions but a (2 on T³), and wholly skewed along a. Clustered layers pay for their skew with a higher load constant, quantifying why the paper's constructions spread processors within layers too.")
	return tb
}

func runE18(scale Scale) *Table {
	type cse struct {
		k, d   int
		coeffs []int
	}
	cases := []cse{
		{5, 2, nil}, {5, 2, []int{1, 2}}, {5, 2, []int{2, 3}},
	}
	if scale == Full {
		cases = []cse{
			{5, 2, nil}, {5, 2, []int{1, 2}}, {5, 2, []int{2, 3}},
			{7, 2, nil}, {7, 2, []int{1, 3}}, {7, 2, []int{2, 5}},
			{5, 3, nil}, {5, 3, []int{1, 2, 3}}, {5, 3, []int{1, 1, 2}},
			{8, 2, nil}, {8, 2, []int{1, 3}}, {8, 2, []int{3, 5}}, {8, 2, []int{2, 3}},
		}
	}
	tb := &Table{
		ID:       "E18",
		Title:    "Linear placements with general coefficient vectors (Definition 10)",
		PaperRef: "extension of Definition 10",
		Columns:  []string{"d", "k", "coefficients", "|P|", "uniform", "E_max ODR", "E_max UDR", "UDR E_max/|P|"},
	}
	for _, c := range cases {
		t := torus.New(c.k, c.d)
		p := mustPlacement(placement.Linear{C: 0, Coeffs: c.coeffs}, t)
		odr := load.Compute(p, routing.ODR{}, load.Options{})
		udr := load.Compute(p, routing.UDR{}, load.Options{})
		label := "1,…,1"
		if c.coeffs != nil {
			label = trimBrackets(c.coeffs)
		}
		tb.AddRow(c.d, c.k, label, p.Size(), p.IsUniform(), odr.Max, udr.Max,
			udr.Max/float64(p.Size()))
	}
	tb.AddNote("Any coefficient vector with a unit entry gives the same size k^{d-1}; with *all* entries units the placement stays uniform and the load constants are unchanged up to torus symmetry — the choice c_i = 1 in the paper is without loss of generality. Vectors containing a non-unit entry (e.g. 2 mod 8) remain valid placements but lose per-dimension uniformity, and the ODR load reflects the skew.")
	return tb
}

func trimBrackets(xs []int) string {
	s := ""
	for i, x := range xs {
		if i > 0 {
			s += ","
		}
		s += itoa(x)
	}
	return s
}

func runE19(scale Scale) *Table {
	caps := []int{2, 64}
	inject := []int{0}
	if scale == Full {
		caps = []int{1, 2, 4, 8, 16, 32, 64, 0}
		inject = []int{0, 4}
	}
	tb := &Table{
		ID:       "E19",
		Title:    "Buffer capacity and injection pacing on T²₆ (0 cap = unbounded)",
		PaperRef: "extension of §1",
		Columns: []string{"placement", "queue cap", "inject interval", "cycles",
			"max queue", "deadlocked", "utilization"},
	}
	t := torus.New(6, 2)
	full := mustPlacement(placement.Full{}, t)
	lin := mustPlacement(placement.Linear{C: 0}, t)
	for _, p := range []*placement.Placement{lin, full} {
		name := "linear"
		if p.Size() == t.Nodes() {
			name = "full"
		}
		for _, iv := range inject {
			for _, qc := range caps {
				st := simnet.Run(simnet.Config{
					Placement: p, Algorithm: routing.ODR{}, Seed: 1,
					QueueCapacity: qc, InjectInterval: iv, MaxCycles: 200000,
				})
				tb.AddRow(name, qc, iv, st.Cycles, st.MaxQueueLen, st.Deadlocked, st.LinkUtilization)
			}
		}
	}
	tb.AddNote("The linear placement completes even with single-packet buffers; the fully populated torus deadlocks (classical store-and-forward cyclic buffer wait on the wrap rings) until buffers grow past its queue demand or injection is paced. Partial population buys not only linear load but bounded buffer pressure.")
	return tb
}
