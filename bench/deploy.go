package bench

import (
	"context"
	"errors"
	"expvar"
	"fmt"
	"net"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"torusnet/internal/cluster"
	"torusnet/internal/cluster/harness"
	"torusnet/internal/service"
)

// maxNodes caps the nodes one deployment ever starts (3 plus one join).
const maxNodes = 8

// deployment is the torusd under test: one service.New server, or a
// harness cluster. Requests rotate round-robin over the live nodes; the
// rotation and per-node in-flight counts let a node leave rotation and
// drain before it is killed, so churn costs no client request.
type deployment struct {
	c   *client          // the generator's client, whose idle connections stop closes
	nw  *harness.Network // cluster mode
	srv *service.Server  // single-node mode
	wg  sync.WaitGroup   // owns the single node's serve goroutine

	mu       sync.RWMutex
	urls     []string // every node started, by index
	live     []int    // node indexes in rotation
	inflight [maxNodes]atomic.Int64
}

// boot starts nodes torusd instances with cfg and waits until all are
// ready. onCompute, when set, observes every pooled computation.
func boot(ctx context.Context, c *client, nodes int, cfg service.Config, onCompute func(key string)) (*deployment, error) {
	dep := &deployment{c: c}
	if nodes == 1 {
		cfg.OnCompute = onCompute
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		dep.srv = service.New(cfg)
		dep.urls, dep.live = []string{"http://" + ln.Addr().String()}, []int{0}
		dep.wg.Add(1)
		//lint:ignore syncmisuse joined in (*deployment).stop via wg.Wait
		go func() {
			defer dep.wg.Done()
			if err := dep.srv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
				fmt.Fprintln(os.Stderr, "bench: serve:", err)
			}
		}()
		if err := c.waitReady(ctx, dep.urls[0]); err != nil {
			return nil, errors.Join(err, dep.stop(ctx))
		}
		return dep, nil
	}
	opts := harness.Options{Nodes: nodes, Service: cfg}
	if onCompute != nil {
		opts.OnCompute = func(_ int, key string) { onCompute(key) }
	}
	nw, err := harness.Start(opts)
	if err != nil {
		return nil, err
	}
	dep.nw = nw
	for i, n := range nw.Nodes {
		dep.urls = append(dep.urls, n.URL)
		dep.live = append(dep.live, i)
	}
	if err := nw.WaitReady(ctx); err != nil {
		return nil, errors.Join(err, dep.stop(ctx))
	}
	return dep, nil
}

// stopGrace bounds the graceful shutdown of a cluster node. A node stops
// only when none of the generator's requests is in flight there, so a
// connection Shutdown still waits on was dialled by a peer-fill client and
// never sent on, and Shutdown counts such a connection as active for five
// seconds.
const stopGrace = 250 * time.Millisecond

// graceful runs a cluster shutdown bounded by stopGrace; the grace running
// out is not an error.
func graceful(ctx context.Context, shutdown func(context.Context) error) error {
	gctx, cancel := context.WithTimeout(ctx, stopGrace)
	defer cancel()
	err := shutdown(gctx)
	if errors.Is(err, context.DeadlineExceeded) && ctx.Err() == nil {
		return nil
	}
	return err
}

// stop shuts every node down and waits for it to exit. The generator's
// idle connections are closed first, for the same reason as stopGrace.
func (d *deployment) stop(ctx context.Context) error {
	d.c.close()
	if d.nw != nil {
		return graceful(ctx, d.nw.Stop)
	}
	err := d.srv.Shutdown(ctx)
	d.wg.Wait()
	return err
}

// pick returns the node for a request slot and counts the request in
// flight there; the caller calls done(idx) when the answer is in.
func (d *deployment) pick(slot int64) (int, string) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	idx := d.live[slot%int64(len(d.live))]
	d.inflight[idx].Add(1)
	return idx, d.urls[idx]
}

func (d *deployment) done(idx int) { d.inflight[idx].Add(-1) }

// servers returns every node's server, killed ones included: their
// counters still hold the work they did.
func (d *deployment) servers() []*service.Server {
	if d.nw == nil {
		return []*service.Server{d.srv}
	}
	out := make([]*service.Server, 0, len(d.nw.Nodes))
	for _, n := range d.nw.Nodes {
		out = append(out, n.Server)
	}
	return out
}

// counters sums every node's /debug/vars integer counters, the cluster
// view's under a "cluster." prefix. It reads the same expvar maps the
// endpoint serves, in-process.
func (d *deployment) counters() map[string]int64 {
	out := make(map[string]int64)
	var add func(prefix string, m *expvar.Map)
	add = func(prefix string, m *expvar.Map) {
		m.Do(func(kv expvar.KeyValue) {
			switch v := kv.Value.(type) {
			case *expvar.Int:
				out[prefix+kv.Key] += v.Value()
			case *expvar.Map:
				if kv.Key == "cluster" {
					add("cluster.", v)
				}
			}
		})
	}
	for _, s := range d.servers() {
		add("", s.ExpvarMap())
	}
	return out
}

// kill takes node idx out of rotation, waits until its requests in flight
// have been answered, and stops it. The survivors' rings still list it, so
// fills homed there fail over to the key's backup owner.
func (d *deployment) kill(ctx context.Context, idx int) error {
	d.mu.Lock()
	live := d.live[:0:0]
	for _, i := range d.live {
		if i != idx {
			live = append(live, i)
		}
	}
	d.live = live
	d.mu.Unlock()
	for d.inflight[idx].Load() > 0 {
		if err := sleepUntil(ctx, time.Now().Add(time.Millisecond)); err != nil {
			return err
		}
	}
	if err := graceful(ctx, func(gctx context.Context) error { return d.nw.Kill(gctx, idx) }); err != nil {
		return err
	}
	return d.nw.KillAndWait(ctx, idx) // already killed: waits for the node to exit
}

// join boots a fresh node, admits it on every live node (one membership
// epoch), and puts it in rotation once it is ready.
func (d *deployment) join(ctx context.Context) error {
	node, err := d.nw.Join(ctx)
	if err != nil {
		return err
	}
	if node.Index >= maxNodes {
		return fmt.Errorf("bench: node %d exceeds the %d-node cap", node.Index, maxNodes)
	}
	d.mu.Lock()
	d.urls = append(d.urls, node.URL)
	d.live = append(d.live, node.Index)
	d.mu.Unlock()
	return nil
}

// minEpoch is the lowest membership epoch among live nodes that were in
// the cluster before the last join (a joiner's own view starts at 1).
func (d *deployment) minEpoch() uint64 {
	d.mu.RLock()
	defer d.mu.RUnlock()
	var lo uint64
	for _, i := range d.live[:len(d.live)-1] {
		if e := d.nw.Nodes[i].Cluster.Epoch(); lo == 0 || e < lo {
			lo = e
		}
	}
	return lo
}

// ownerRing builds a standalone three-peer cluster view whose peers are
// never dialled, for timing ring lookups outside any request.
func ownerRing() *cluster.Cluster {
	peers := []string{"http://peer-a", "http://peer-b", "http://peer-c"}
	c, err := cluster.New(cluster.Config{
		Self:  peers[0],
		Peers: peers,
		Dial:  func(string) cluster.PeerTransport { return unreachable{} },
	})
	if err != nil {
		panic(err) // a fixed, valid configuration
	}
	return c
}

// unreachable is a peer transport that is never used: ring lookups do not
// dial.
type unreachable struct{}

var errUnreachable = errors.New("bench: lookup-only peer")

func (unreachable) FillPeer(context.Context, string, []byte) ([]byte, error) {
	return nil, errUnreachable
}

func (unreachable) Ready(context.Context) error { return errUnreachable }
