package optimize

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"torusnet/internal/load"
	"torusnet/internal/obs"
	"torusnet/internal/placement"
	"torusnet/internal/routing"
	"torusnet/internal/torus"
)

// checkState compares st's per-edge loads with the generic load engine on
// nodes, and — for torus routings, whose paths are shortest in the Lee
// metric — Σ loads with load.ExpectedTotal (load conservation).
func checkState(t *testing.T, tag string, st *loadState, nodes []torus.Node, alg routing.Algorithm, conserve bool) {
	t.Helper()
	var want []float64
	if len(nodes) > 0 {
		p := placement.New(st.t, nodes, "state")
		want = load.Compute(p, alg, load.Options{FastPath: load.FastPathOff, Workers: 1}).Loads
		if conserve {
			sum := 0.0
			for _, l := range st.loads {
				sum += l
			}
			if exp := load.ExpectedTotal(p); math.Abs(sum-exp) > 1e-9*math.Max(1, exp) {
				t.Fatalf("%s: Σ loads %v, expected total %v", tag, sum, exp)
			}
		}
	}
	for e, l := range st.loads {
		w := 0.0
		if want != nil {
			w = want[e]
		}
		if math.Abs(l-w) > 1e-9 {
			t.Fatalf("%s: edge %d load %v, engine %v (nodes %v)", tag, e, l, w, nodes)
		}
	}
}

// TestLoadStateMatchesEngine drives a seeded random sequence of add,
// remove, nested checkpoint, revert and commit through a loadState and
// checks every step against a from-scratch engine run. Reverts must
// restore the loads bit for bit.
func TestLoadStateMatchesEngine(t *testing.T) {
	algs := []struct {
		alg      routing.Algorithm
		conserve bool
	}{
		{routing.ODR{}, true},
		{routing.ODRMulti{}, true},
		{routing.UDR{}, true},
		{routing.UDRMulti{}, true},
		{routing.FAR{}, true},
		{routing.ODROrder{Order: []int{1, 0}}, true},
		// Mesh paths avoid the wrap links, so they are not Lee-shortest
		// and Σ loads exceeds the Lee total.
		{routing.MeshODR{}, false},
	}
	for _, a := range algs {
		for _, tr := range []*torus.Torus{torus.New(5, 2), torus.New(6, 2)} {
			rng := rand.New(rand.NewSource(int64(tr.K())))
			st := newLoadState(tr, a.alg)
			var nodes []torus.Node
			in := make([]bool, tr.Nodes())
			type saved struct {
				cp    int
				nodes []torus.Node
				loads []float64
			}
			var open []saved
			for step := 0; step < 120; step++ {
				tag := a.alg.Name() + " " + tr.String()
				switch op := rng.Intn(10); {
				case op < 4 && len(nodes) < 12:
					v := torus.Node(rng.Intn(tr.Nodes()))
					if in[v] {
						continue
					}
					st.add(v, nodes)
					nodes = append(nodes, v)
					in[v] = true
				case op < 6 && len(nodes) > 0:
					i := rng.Intn(len(nodes))
					st.remove(nodes[i], nodes)
					in[nodes[i]] = false
					nodes = append(nodes[:i:i], nodes[i+1:]...)
				case op < 8:
					open = append(open, saved{
						cp:    st.checkpoint(),
						nodes: append([]torus.Node(nil), nodes...),
						loads: append([]float64(nil), st.loads...),
					})
				case op < 9 && len(open) > 0:
					// Revert to any open checkpoint, dropping the ones
					// opened after it: the range then spans several
					// epochs, some with an edge snapshotted more than once.
					j := rng.Intn(len(open))
					top := open[j]
					open = open[:j]
					st.revert(top.cp)
					for _, u := range nodes {
						in[u] = false
					}
					nodes = top.nodes
					for _, u := range nodes {
						in[u] = true
					}
					for e, l := range st.loads {
						if l != top.loads[e] {
							t.Fatalf("%s step %d: revert left edge %d at %v, saved %v", tag, step, e, l, top.loads[e])
						}
					}
				default:
					st.commit()
					open = open[:0]
				}
				checkState(t, tag, st, nodes, a.alg, a.conserve)
			}
		}
	}
}

// TestLoadStateWriteAfterRevert pins the epoch bump in revert: a write
// after an inner revert must be snapshotted again, or the enclosing
// checkpoint could not undo it.
func TestLoadStateWriteAfterRevert(t *testing.T) {
	tr := torus.New(5, 2)
	st := newLoadState(tr, routing.ODR{})
	nodes := []torus.Node{0}
	outer := st.checkpoint()
	inner := st.checkpoint()
	st.add(7, nodes)
	st.revert(inner)
	st.add(7, nodes)
	st.revert(outer)
	for e, l := range st.loads {
		if l != 0 {
			t.Fatalf("edge %d load %v after reverting to the empty state", e, l)
		}
	}
}

// TestLoadStateMaxTracksAdd checks the running maximum add reports against
// a full scan: loads only grow under add, so max(previous, add) is exact.
func TestLoadStateMaxTracksAdd(t *testing.T) {
	tr := torus.New(6, 2)
	st := newLoadState(tr, routing.UDR{})
	nodes := leeSeedNodes(tr, 8)
	curMax := 0.0
	for i, v := range nodes {
		curMax = max(curMax, st.add(v, nodes[:i]))
		if m := st.max(); m != curMax {
			t.Fatalf("after %d nodes: running max %v, scan %v", i+1, curMax, m)
		}
	}
}

// TestBranchBoundExpansionAllocs pins one branch-and-bound expansion —
// checkpoint, add against the prefix, revert — at zero heap allocations.
func TestBranchBoundExpansionAllocs(t *testing.T) {
	tr := torus.New(8, 2)
	b := &bnb{t: tr, state: newLoadState(tr, routing.ODR{}), chosen: make([]torus.Node, 0, 8)}
	curMax := 0.0
	for _, v := range []torus.Node{0, 11, 22, 33, 44, 55, 63} {
		_, curMax = b.push(v, curMax)
	}
	v := torus.Node(13)
	if n := testing.AllocsPerRun(200, func() {
		cp, _ := b.push(v, curMax)
		b.pop(cp)
	}); n != 0 {
		t.Errorf("bnb expansion allocates %v times, want 0", n)
	}
}

// TestAnnealMoveAllocs pins one annealing move — checkpoint, relocate,
// then revert or commit — at zero heap allocations.
func TestAnnealMoveAllocs(t *testing.T) {
	tr := torus.New(8, 3)
	nodes := leeSeedNodes(tr, 64)
	st := newLoadState(tr, routing.ODR{})
	for i, u := range nodes {
		st.add(u, nodes[:i])
	}
	st.commit()
	in := make([]bool, tr.Nodes())
	for _, u := range nodes {
		in[u] = true
	}
	free := 0
	for in[free] {
		free++
	}
	target := torus.Node(free)
	if n := testing.AllocsPerRun(200, func() {
		old := nodes[5]
		cp := st.checkpoint()
		relocate(st, nodes, 5, target)
		st.revert(cp)
		nodes[5] = old
	}); n != 0 {
		t.Errorf("rejected anneal move allocates %v times, want 0", n)
	}
	if n := testing.AllocsPerRun(200, func() {
		old := nodes[5]
		st.checkpoint()
		relocate(st, nodes, 5, target)
		st.commit()
		target = old
	}); n != 0 {
		t.Errorf("accepted anneal move allocates %v times, want 0", n)
	}
}

// TestSearchSpansNestEngineRuns checks that the start and final engine
// runs of both searchers are traced as load.compute children of the
// searcher's span.
func TestSearchSpansNestEngineRuns(t *testing.T) {
	tr := torus.New(6, 2)
	for _, name := range []string{"optimize.anneal", "optimize.bnb"} {
		tracer := obs.NewTracer(2)
		ctx, root := tracer.Root(context.Background(), "test", "")
		var err error
		if name == "optimize.anneal" {
			_, err = AnnealCtx(ctx, tr, routing.ODR{}, Config{Size: 6, Steps: 10, Seed: 1})
		} else {
			_, err = BranchAndBound(ctx, tr, routing.ODR{}, Config{Size: 6})
		}
		if err != nil {
			t.Fatal(err)
		}
		root.End()
		traces := tracer.Snapshot(1)
		if len(traces) != 1 {
			t.Fatalf("%s: %d traces exported", name, len(traces))
		}
		var search uint64
		for _, s := range traces[0].Spans {
			if s.Name == name {
				search = s.SpanID
			}
		}
		children := 0
		for _, s := range traces[0].Spans {
			if s.Name == "load.compute" && s.ParentID == search {
				children++
			}
		}
		if search == 0 || children < 2 {
			t.Errorf("%s: span %d has %d load.compute children, want ≥ 2", name, search, children)
		}
	}
}
