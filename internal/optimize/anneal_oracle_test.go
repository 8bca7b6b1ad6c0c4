package optimize

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"torusnet/internal/placement"
	"torusnet/internal/routing"
	"torusnet/internal/torus"
)

// annealFull is the test oracle for AnnealCtx: the same schedule, proposal
// stream and Metropolis rule, but every move is priced by a full load
// engine recompute and energies are compared exactly.
func annealFull(t *torus.Torus, alg routing.Algorithm, cfg Config) *Result {
	ctx := context.Background()
	steps := cfg.Steps
	if steps <= 0 {
		steps = 200
	}
	t0 := cfg.InitialTemp
	if t0 <= 0 {
		t0 = 2.0
	}
	t1 := cfg.FinalTemp
	if t1 <= 0 {
		t1 = 0.01
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	perm := rng.Perm(t.Nodes())
	current := make([]torus.Node, cfg.Size)
	occupied := make([]bool, t.Nodes())
	if len(cfg.Start) > 0 {
		copy(current, cfg.Start)
	} else {
		for i := 0; i < cfg.Size; i++ {
			current[i] = torus.Node(perm[i])
		}
	}
	for _, u := range current {
		occupied[u] = true
	}
	cur := energy(ctx, t, current, alg, cfg.Workers)
	res := &Result{StartEMax: cur, BestEMax: cur, Steps: steps, Strategy: StrategyAnneal}
	best := append([]torus.Node(nil), current...)
	cool := math.Pow(t1/t0, 1/math.Max(1, float64(steps-1)))
	temp := t0
	for step := 0; step < steps; step++ {
		pi := rng.Intn(cfg.Size)
		var target torus.Node
		for {
			target = torus.Node(rng.Intn(t.Nodes()))
			if !occupied[target] {
				break
			}
		}
		old := current[pi]
		occupied[old] = false
		occupied[target] = true
		current[pi] = target
		next := energy(ctx, t, current, alg, cfg.Workers)
		if next <= cur || rng.Float64() < math.Exp((cur-next)/temp) {
			cur = next
			res.Accepted++
			if cur < res.BestEMax {
				res.BestEMax = cur
				copy(best, current)
			}
		} else {
			occupied[target] = false
			occupied[old] = true
			current[pi] = old
		}
		temp *= cool
	}
	res.Best = placement.New(t, best, "annealed")
	return finish(res)
}

// TestAnnealMatchesFullRecompute pins the incremental move pricing to the
// full-recompute oracle. ODR and ODR-multi loads are exact in floating
// point (integers and dyadic fractions), so every energy comparison — and
// with it the whole move sequence — must agree exactly.
func TestAnnealMatchesFullRecompute(t *testing.T) {
	cases := []struct{ k, d, size, steps int }{
		{5, 2, 5, 150},
		{6, 2, 6, 150},
		{8, 2, 8, 120},
		{4, 3, 16, 80},
	}
	for _, alg := range []routing.Algorithm{routing.ODR{}, routing.ODRMulti{}} {
		for _, c := range cases {
			tr := torus.New(c.k, c.d)
			for seed := int64(1); seed <= 3; seed++ {
				cfgs := []Config{
					{Size: c.size, Steps: c.steps, Seed: seed},
					{Size: c.size, Steps: c.steps, Seed: seed, Start: leeSeedNodes(tr, c.size)},
				}
				for _, cfg := range cfgs {
					got := Anneal(tr, alg, cfg)
					want := annealFull(tr, alg, cfg)
					if got.Accepted != want.Accepted || got.BestEMax != want.BestEMax || got.StartEMax != want.StartEMax {
						t.Errorf("%s T^%d_%d seed %d start %v: accepted/best/start %d/%v/%v, oracle %d/%v/%v",
							alg.Name(), c.d, c.k, seed, cfg.Start != nil,
							got.Accepted, got.BestEMax, got.StartEMax, want.Accepted, want.BestEMax, want.StartEMax)
						continue
					}
					gn, wn := got.Best.Nodes(), want.Best.Nodes()
					for i := range wn {
						if gn[i] != wn[i] {
							t.Errorf("%s T^%d_%d seed %d start %v: best placement %v, oracle %v",
								alg.Name(), c.d, c.k, seed, cfg.Start != nil, gn, wn)
							break
						}
					}
				}
			}
		}
	}
}
