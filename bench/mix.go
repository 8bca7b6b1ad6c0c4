package bench

import (
	"encoding/json"
	"fmt"
	"math/rand"

	"torusnet/internal/service"
	"torusnet/internal/torus"
)

// request is one pre-encoded call of a workload mix: the endpoint, the
// JSON body sent verbatim, and the canonical request it stands for, which
// the answer checks read. Specs are generated in canonical spelling, so key
// is the cache key the server derives.
type request struct {
	path      string
	body      []byte
	key       string
	k, d      int
	placement string
	routing   string // analyze only
	// analytic marks requests the closed-form lane must answer: a single
	// linear class (linear:C or diagonal:S) under ODR, or ODR-multi on odd k.
	analytic bool
	// sample puts the request in the seeded 1-in-16 post-run verification.
	sample bool
}

// A mix draws a workload's request stream; each call returns the next
// request. Mixes are deterministic per seed.
type mix func() *request

// splitmix64 is the SplitMix64 finalizer: a cheap, well-mixed hash used to
// derive per-key random-placement seeds and sample flags from the seed.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// derive maps (seed, stream, i) to a positive 31-bit integer. Streams keep
// the placement seeds of different request classes independent.
func derive(seed int64, stream, i uint64) int {
	return int(splitmix64(uint64(seed)^splitmix64(stream<<40|i))>>33) + 1
}

// procs is |P| = k^{d-1}, the paper's processor count for a torus.
func procs(k, d int) int {
	n, err := torus.Volume(k, d-1)
	if err != nil {
		panic(err) // the mixes' tori are constants far inside the limit
	}
	return n
}

// newAnalyze builds a canonical /v1/analyze request.
func newAnalyze(seed int64, k, d int, placement, routing string, analytic bool) *request {
	req := service.AnalyzeRequest{K: k, D: d, Placement: placement, Routing: routing}
	return newRequest(seed, "/v1/analyze", req, req.CacheKey(), k, d, placement, routing, analytic)
}

func newRequest(seed int64, path string, v any, key string, k, d int, placement, routing string, analytic bool) *request {
	body, err := json.Marshal(v)
	if err != nil {
		panic(err) // plain structs of ints and strings always marshal
	}
	return &request{
		path: path, body: body, key: key, k: k, d: d,
		placement: placement, routing: routing, analytic: analytic,
		sample: splitmix64(uint64(seed)^fnv(key))%16 == 0,
	}
}

// fnv is FNV-1a over s.
func fnv(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// zipfRanks is a Zipf(s=1.1) rank stream over n keys; rank 0 is hottest.
func zipfRanks(rng *rand.Rand, n int) func() int {
	z := rand.NewZipf(rng, 1.1, 1, uint64(n-1))
	return func() int { return int(z.Uint64()) }
}

// hotKs are the analytic-lane tori T³ₖ of hot-mix: odd and even k, so
// ODR-multi takes the lane only on the odd ones.
var hotKs = []int{63, 64, 127, 128, 255, 256}

// hotMix: 40% analytic-lane linear:c on T³ₖ, 50% Zipf /v1/analyze over
// 4096 random-placement keys on T²₈/T²₁₆ (odr/udr), 10% Zipf /v1/bounds
// over 4096 random placements on T²₁₆. Rank → class is fixed; the seed
// picks the draw sequence and the placement seeds.
func hotMix(seed int64) mix {
	rng := rand.New(rand.NewSource(seed))
	analyzeRank, boundsRank := zipfRanks(rng, 4096), zipfRanks(rng, 4096)
	analyze := make([]*request, 4096)
	bounds := make([]*request, 4096)
	analytic := make(map[[3]int]*request)
	return func() *request {
		switch u := rng.Float64(); {
		case u < 0.4:
			k := hotKs[rng.Intn(len(hotKs))]
			multi := 0
			if k%2 == 1 {
				multi = rng.Intn(2)
			}
			c := rng.Intn(k)
			id := [3]int{k, c, multi}
			if r := analytic[id]; r != nil {
				return r
			}
			routing := "odr"
			if multi == 1 {
				routing = "odr-multi"
			}
			r := newAnalyze(seed, k, 3, fmt.Sprintf("linear:%d", c), routing, true)
			analytic[id] = r
			return r
		case u < 0.9:
			rank := analyzeRank()
			if analyze[rank] == nil {
				k, routing := 8, "odr"
				if rank%2 == 1 {
					k = 16
				}
				if (rank/2)%2 == 1 {
					routing = "udr"
				}
				pl := fmt.Sprintf("random:%d:%d", procs(k, 2), derive(seed, 1, uint64(rank)))
				analyze[rank] = newAnalyze(seed, k, 2, pl, routing, false)
			}
			return analyze[rank]
		default:
			rank := boundsRank()
			if bounds[rank] == nil {
				pl := fmt.Sprintf("random:16:%d", derive(seed, 2, uint64(rank)))
				req := service.BoundsRequest{K: 16, D: 2, Placement: pl}
				bounds[rank] = newRequest(seed, "/v1/bounds", req, req.CacheKey(), 16, 2, pl, "", false)
			}
			return bounds[rank]
		}
	}
}

// coldTori and routings span cold-compute's computed-engine space.
var (
	coldTori = [][2]int{{8, 2}, {12, 2}, {16, 2}, {8, 3}}
	routings = []string{"odr", "odr-multi", "udr", "udr-multi", "far"}
)

// coldRoutings are the routings cold-compute analyzes placements on T^d_k
// under. FAR on T³₈ is left out: on a random placement it takes ~35 ms on
// the generic engine, 150 times the mix's median, and 2.6–6 ms on the
// multiple-linear ones, so a few such requests at once stall both senders
// and decide the tail on their own. The kernel timings still cover FAR.
func coldRoutings(d int) []string {
	if d == 3 {
		return routings[:4]
	}
	return routings
}

// coldMix: every request misses the cache. 10% are /v1/bisect best-sweep
// on a fresh random placement; the rest /v1/analyze, one third on fresh
// random placements (generic engine) and two thirds on the symmetric
// multi:2, multi:3, and diagonal placements (symmetry engine; diagonal
// under ODR takes the analytic lane), all under coldRoutings. The 636
// symmetric keys repeat only once per pass of a seeded permutation, about
// a thousand requests apart, so the 512-entry LRU has always evicted them
// by then.
func coldMix(seed int64) mix {
	rng := rand.New(rand.NewSource(seed))
	var sym []*request
	for _, t := range coldTori {
		k, d := t[0], t[1]
		for s := 0; s < k; s++ {
			for _, pl := range []string{fmt.Sprintf("multi:2:%d", s), fmt.Sprintf("multi:3:%d", s), fmt.Sprintf("diagonal:%d", s)} {
				for _, a := range coldRoutings(d) {
					lane := pl[0] == 'd' && a == "odr"
					sym = append(sym, newAnalyze(seed, k, d, pl, a, lane))
				}
			}
		}
	}
	perm := rng.Perm(len(sym))
	cursor, fresh := 0, uint64(0)
	randomPlacement := func(k, d int) string {
		fresh++
		return fmt.Sprintf("random:%d:%d", procs(k, d), derive(seed, 3, fresh))
	}
	return func() *request {
		if rng.Float64() < 0.1 {
			t := coldTori[rng.Intn(len(coldTori))]
			pl := randomPlacement(t[0], t[1])
			req := service.BisectRequest{K: t[0], D: t[1], Placement: pl, Method: "best-sweep"}
			return newRequest(seed, "/v1/bisect", req, req.CacheKey(), t[0], t[1], pl, "", false)
		}
		if rng.Intn(3) == 0 {
			t := coldTori[rng.Intn(len(coldTori))]
			rs := coldRoutings(t[1])
			a := rs[rng.Intn(len(rs))]
			return newAnalyze(seed, t[0], t[1], randomPlacement(t[0], t[1]), a, false)
		}
		r := sym[perm[cursor]]
		cursor = (cursor + 1) % len(perm)
		return r
	}
}

// clusterTori are cluster-churn's tori, indexed by rank mod 3.
var clusterTori = [][2]int{{8, 2}, {16, 2}, {8, 3}}

// clusterMix: Zipf /v1/analyze over 8192 random-placement keys on
// T²₈/T²₁₆/T³₈ under odr/udr.
func clusterMix(seed int64) mix {
	rng := rand.New(rand.NewSource(seed))
	rank := zipfRanks(rng, 8192)
	keys := make([]*request, 8192)
	return func() *request {
		r := rank()
		if keys[r] == nil {
			keys[r] = clusterKey(seed, r)
		}
		return keys[r]
	}
}

// clusterKey is cluster-churn's request for Zipf rank r.
func clusterKey(seed int64, r int) *request {
	t := clusterTori[r%3]
	routing := "odr"
	if (r/3)%2 == 1 {
		routing = "udr"
	}
	pl := fmt.Sprintf("random:%d:%d", procs(t[0], t[1]), derive(seed, 4, uint64(r)))
	return newAnalyze(seed, t[0], t[1], pl, routing, false)
}

// draw takes n requests from m.
func draw(m mix, n int) []*request {
	out := make([]*request, n)
	for i := range out {
		out[i] = m()
	}
	return out
}
