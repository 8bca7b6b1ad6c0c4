// Package wormhole is a flit-level wormhole-routing simulator for
// partially populated tori — the switching regime of the complete-exchange
// literature the paper builds on (its refs [7] Tseng et al. and [11] Ni &
// McKinley). A packet is a worm of F flits; the head flit allocates a
// virtual channel (VC) on every link it enters and the body follows,
// holding the chain of VCs until the tail drains. Each physical link moves
// one flit per cycle, arbitrated round-robin among its VCs.
//
// Deadlock on torus rings is real in this model: with a single VC per
// link, wrap-around traffic creates cyclic buffer-wait and the simulator
// reports Deadlocked. The classical dateline scheme — two VCs per link,
// packets start rings on VC 0 and switch to VC 1 after crossing the wrap
// edge — restores deadlock freedom for dimension-ordered routes, and the
// simulator implements exactly that (experiment E20 shows both regimes).
//
// The simulator is deterministic: links are serviced in index order, each
// with a persistent round-robin pointer, and sources inject in placement
// order.
package wormhole

import (
	"fmt"
	"math/rand"

	"torusnet/internal/placement"
	"torusnet/internal/routing"
	"torusnet/internal/torus"
)

// Config parameterizes a wormhole run.
type Config struct {
	Placement *placement.Placement
	Algorithm routing.Algorithm
	// Seed drives path sampling.
	Seed int64
	// FlitsPerPacket is the worm length F (default 4).
	FlitsPerPacket int
	// BufferDepth is the per-VC flit buffer capacity (default 2).
	BufferDepth int
	// VirtualChannels per physical link (default 2: dateline scheme).
	// With 1 VC wrap traffic can deadlock — that is the point of E20.
	VirtualChannels int
	// MaxCycles aborts a runaway or deadlocked-undetected run; 0 = none.
	MaxCycles int
}

func (c *Config) withDefaults() Config {
	out := *c
	if out.FlitsPerPacket <= 0 {
		out.FlitsPerPacket = 4
	}
	if out.BufferDepth <= 0 {
		out.BufferDepth = 2
	}
	if out.VirtualChannels <= 0 {
		out.VirtualChannels = 2
	}
	return out
}

// Stats reports a completed (or deadlocked) wormhole exchange.
type Stats struct {
	Packets        int
	Flits          int
	Cycles         int
	DeliveredFlits int
	// MaxLinkFlits is the largest number of flits carried by one link.
	MaxLinkFlits int
	// MeanPacketLatency measures head injection to tail delivery.
	MeanPacketLatency float64
	MaxPacketLatency  int
	Deadlocked        bool
	Aborted           bool
}

// String summarizes the run.
func (s *Stats) String() string {
	suffix := ""
	if s.Deadlocked {
		suffix = " DEADLOCK"
	}
	if s.Aborted {
		suffix += " ABORTED"
	}
	return fmt.Sprintf("packets=%d flits=%d cycles=%d delivered=%d maxLinkFlits=%d meanLat=%.1f%s",
		s.Packets, s.Flits, s.Cycles, s.DeliveredFlits, s.MaxLinkFlits, s.MeanPacketLatency, suffix)
}

// vcState is one virtual channel of one physical link.
type vcState struct {
	owner int32 // packet id, -1 when free
	pos   int32 // hop index of the owner's path this VC serves
	flits int32 // flits buffered here
}

type worm struct {
	path      []torus.Edge
	vcClass   []int8 // dateline class per hop
	vcAt      []int8 // allocated VC index per hop, -1 when none
	flitsAt   []int16
	passed    []int16 // flits that have left hop j (forwarded or delivered)
	injected  int
	delivered int
	birth     int
	done      bool
}

// Run executes one complete exchange under wormhole switching.
func Run(cfg Config) *Stats {
	cfg = cfg.withDefaults()
	p := cfg.Placement
	t := p.Torus()
	F := cfg.FlitsPerPacket
	B := cfg.BufferDepth
	V := cfg.VirtualChannels

	rng := rand.New(rand.NewSource(cfg.Seed))
	var worms []*worm
	// Per-source packet queues: sources inject their packets one at a time.
	sourceQueue := make(map[torus.Node][]int32)
	var sources []torus.Node
	for _, src := range p.Nodes() {
		sources = append(sources, src)
		for _, dst := range p.Nodes() {
			if dst == src {
				continue
			}
			path := cfg.Algorithm.SamplePath(t, src, dst, rng)
			w := &worm{
				path:    path.Edges,
				vcClass: datelineClasses(t, path.Edges, V),
				vcAt:    filled(len(path.Edges), -1),
				flitsAt: make([]int16, len(path.Edges)),
				passed:  make([]int16, len(path.Edges)),
				birth:   -1,
			}
			worms = append(worms, w)
			sourceQueue[src] = append(sourceQueue[src], int32(len(worms)-1))
		}
	}

	vcs := make([][]vcState, t.Edges())
	for e := range vcs {
		vcs[e] = make([]vcState, V)
		for v := range vcs[e] {
			vcs[e][v].owner = -1
		}
	}
	rr := make([]int, t.Edges())
	linkFlits := make([]int, t.Edges())

	stats := &Stats{Packets: len(worms), Flits: len(worms) * F}
	remaining := len(worms)
	var latencySum int64

	// tryAllocate gives packet id the VC of its class at hop pos, if free.
	tryAllocate := func(id int32, w *worm, pos int) bool {
		e := w.path[pos]
		cls := int(w.vcClass[pos])
		vc := &vcs[e][cls]
		if vc.owner >= 0 {
			return false
		}
		vc.owner = id
		vc.pos = int32(pos)
		vc.flits = 0
		w.vcAt[pos] = int8(cls)
		return true
	}
	// release frees the VC at hop pos of worm w.
	release := func(w *worm, pos int) {
		e := w.path[pos]
		vcs[e][w.vcAt[pos]].owner = -1
		w.vcAt[pos] = -1
	}

	cycle := 0
	for remaining > 0 {
		if cfg.MaxCycles > 0 && cycle >= cfg.MaxCycles {
			stats.Aborted = true
			break
		}
		cycle++
		progressed := false

		// Link phase: each physical link forwards at most one flit.
		for e := range vcs {
			moved := false
			for off := 0; off < V && !moved; off++ {
				vi := (rr[e] + off) % V
				vc := &vcs[e][vi]
				if vc.owner < 0 || vc.flits == 0 {
					continue
				}
				id := vc.owner
				w := worms[id]
				pos := int(vc.pos)
				last := pos == len(w.path)-1
				if !last {
					// Need the next hop's VC (allocate on demand: this is
					// the head flit arriving) with buffer space.
					if w.vcAt[pos+1] < 0 && !tryAllocate(id, w, pos+1) {
						continue
					}
					next := w.path[pos+1]
					if int(vcs[next][w.vcAt[pos+1]].flits) >= B {
						continue
					}
					vcs[next][w.vcAt[pos+1]].flits++
					w.flitsAt[pos+1]++
				} else {
					w.delivered++
				}
				vc.flits--
				w.flitsAt[pos]--
				w.passed[pos]++
				linkFlits[e]++
				moved = true
				progressed = true
				// Tail has fully left hop pos: release its VC.
				if int(w.passed[pos]) == F {
					release(w, pos)
				}
				if w.delivered == F && !w.done {
					w.done = true
					remaining--
					lat := cycle - w.birth
					latencySum += int64(lat)
					if lat > stats.MaxPacketLatency {
						stats.MaxPacketLatency = lat
					}
				}
			}
			if moved {
				rr[e] = (rr[e] + 1) % V
			}
		}

		// Injection phase: each source feeds its current packet one flit.
		for _, src := range sources {
			queue := sourceQueue[src]
			if len(queue) == 0 {
				continue
			}
			id := queue[0]
			w := worms[id]
			if w.vcAt[0] < 0 && !tryAllocate(id, w, 0) {
				continue
			}
			e0 := w.path[0]
			if int(vcs[e0][w.vcAt[0]].flits) >= B {
				continue
			}
			if w.birth < 0 {
				w.birth = cycle
			}
			vcs[e0][w.vcAt[0]].flits++
			w.flitsAt[0]++
			w.injected++
			progressed = true
			if w.injected == F {
				sourceQueue[src] = queue[1:]
			}
		}

		if !progressed {
			stats.Deadlocked = true
			break
		}
	}

	stats.Cycles = cycle
	for _, lf := range linkFlits {
		if lf > stats.MaxLinkFlits {
			stats.MaxLinkFlits = lf
		}
	}
	for _, w := range worms {
		stats.DeliveredFlits += w.delivered
	}
	done := stats.Packets - remaining
	if done > 0 {
		stats.MeanPacketLatency = float64(latencySum) / float64(done)
	}
	return stats
}

// datelineClasses assigns each hop its VC class: 0 until the worm crosses a
// wrap edge within the current dimension segment, 1 afterwards. With V = 1
// every hop is class 0 (no protection).
func datelineClasses(t *torus.Torus, path []torus.Edge, v int) []int8 {
	classes := make([]int8, len(path))
	if v < 2 {
		return classes
	}
	curDim := -1
	crossed := false
	for j, e := range path {
		dim := t.EdgeDim(e)
		if dim != curDim {
			curDim = dim
			crossed = false
		}
		if !crossed && isWrap(t, e) {
			crossed = true
			// The wrap hop itself still travels on class 0; switching at
			// the next buffer is the standard dateline placement, but
			// switching on the wrap hop is also sound. We switch from this
			// hop on, which breaks the ring cycle identically.
			classes[j] = 1
			continue
		}
		if crossed {
			classes[j] = 1
		}
	}
	return classes
}

func isWrap(t *torus.Torus, e torus.Edge) bool {
	src := t.Coord(t.EdgeSource(e), t.EdgeDim(e))
	if t.EdgeDir(e) == torus.Plus {
		return src == t.K()-1
	}
	return src == 0
}

func filled(n int, v int8) []int8 {
	out := make([]int8, n)
	for i := range out {
		out[i] = v
	}
	return out
}
