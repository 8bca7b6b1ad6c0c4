package load

import (
	"fmt"
	"math"
	"math/big"

	"torusnet/internal/placement"
	"torusnet/internal/routing"
	"torusnet/internal/torus"
)

// ExactResult holds per-edge loads as exact rationals. Loads under any
// algorithm of the routing package are rational: the per-pair edge
// probabilities are |C_{p→l→q}| / |C_{p→q}| with integer numerator and
// denominator.
type ExactResult struct {
	Torus *torus.Torus
	Loads []*big.Rat
	Max   *big.Rat
}

// ComputeExact evaluates the load with exact rational arithmetic: the
// big.Rat oracle the tests hold the computed engines to, ring-flow bit for
// bit. It runs serially over every pair, so it suits moderate tori only.
//
// Every pair deposits its per-edge float weights from AccumulatePair into
// one dense buffer, which is scanned and cleared; each weight is scaled by
// |C_{p→q}|; the scaled values must be integers (they are path counts), and
// any deviation beyond rounding noise is reported as an error since it
// would indicate a broken accumulator.
func ComputeExact(p *placement.Placement, alg routing.Algorithm) (*ExactResult, error) {
	t := p.Torus()
	loads := make([]*big.Rat, t.Edges())
	for i := range loads {
		loads[i] = new(big.Rat)
	}
	procs := p.Nodes()
	sc := routing.NewPairScratch(t)
	pair := make([]float64, t.Edges())
	for _, src := range procs {
		for _, dst := range procs {
			if dst == src {
				continue
			}
			count := alg.PathCount(t, src, dst)
			if count <= 0 || count != math.Trunc(count) {
				return nil, fmt.Errorf("load: path count %v for pair %v->%v is not a positive integer",
					count, t.Coords(src), t.Coords(dst))
			}
			alg.AccumulatePair(t, src, dst, 1, pair, sc)
			denom := new(big.Int).SetInt64(int64(count))
			for e, w := range pair {
				if w == 0 {
					continue
				}
				pair[e] = 0
				scaled := w * count
				numer := math.Round(scaled)
				if math.Abs(scaled-numer) > 1e-6 {
					return nil, fmt.Errorf("load: scaled weight %v on edge %d for pair %v->%v is not integral",
						scaled, e, t.Coords(src), t.Coords(dst))
				}
				frac := new(big.Rat).SetFrac(new(big.Int).SetInt64(int64(numer)), denom)
				loads[e].Add(loads[e], frac)
			}
		}
	}
	res := &ExactResult{Torus: t, Loads: loads, Max: new(big.Rat)}
	for _, v := range loads {
		if v.Cmp(res.Max) > 0 {
			res.Max.Set(v)
		}
	}
	return res, nil
}

// MaxFloat returns E_max as a float64.
func (r *ExactResult) MaxFloat() float64 {
	f, _ := r.Max.Float64()
	return f
}

// AllIntegral reports whether every edge load is an integer — true for any
// single-path algorithm such as restricted ODR.
func (r *ExactResult) AllIntegral() bool {
	for _, v := range r.Loads {
		if !v.IsInt() {
			return false
		}
	}
	return true
}
