package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"expvar"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// fakeTransport is a scriptable PeerTransport for unit tests.
type fakeTransport struct {
	fill  func(ctx context.Context, path string, payload []byte) ([]byte, error)
	ready func(ctx context.Context) error

	fills  atomic.Int64
	probes atomic.Int64
}

func (f *fakeTransport) FillPeer(ctx context.Context, path string, payload []byte) ([]byte, error) {
	f.fills.Add(1)
	if f.fill == nil {
		return []byte(`{}`), nil
	}
	return f.fill(ctx, path, payload)
}

func (f *fakeTransport) Ready(ctx context.Context) error {
	f.probes.Add(1)
	if f.ready == nil {
		return nil
	}
	return f.ready(ctx)
}

func decodeAny(b []byte) (any, error) {
	var v any
	err := json.Unmarshal(b, &v)
	return v, err
}

// TestAdmitProbeTimeout is the regression test for the health loop's
// probe bound: re-admitting a cooled-down peer whose /readyz black-holes
// must cost at most ProbeTimeout, not the caller's full deadline. Before
// the bound existed, a blocked probe wedged every fill routed at the peer
// for as long as the request context allowed.
func TestAdmitProbeTimeout(t *testing.T) {
	tr := &fakeTransport{
		fill: func(context.Context, string, []byte) ([]byte, error) {
			return nil, errors.New("refused")
		},
		ready: func(ctx context.Context) error {
			// Black hole: never answers, only honors cancellation.
			<-ctx.Done()
			return ctx.Err()
		},
	}
	c, err := New(Config{
		Self:             "http://self",
		Peers:            []string{"http://self", "http://peer"},
		Dial:             func(string) PeerTransport { return tr },
		FailureThreshold: 1,
		DownCooldown:     time.Millisecond,
		ProbeTimeout:     50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}

	// Find a key homed on the remote peer and fail it once to trip the
	// threshold, then wait out the cooldown so the next fill must probe.
	key := ""
	for i := 0; i < 256; i++ {
		k := fmt.Sprintf("key-%d", i)
		if c.ring().Owner(k) == "http://peer" {
			key = k
			break
		}
	}
	if key == "" {
		t.Fatal("no key homed on the remote peer")
	}
	ctx := context.Background()
	if _, served, _ := c.Fill(ctx, key, "/v1/analyze", []byte(`{}`), decodeAny); served {
		t.Fatal("fill served from a refusing peer")
	}
	time.Sleep(5 * time.Millisecond)

	// The caller has a generous deadline; the probe must not inherit it.
	cctx, cancel := context.WithTimeout(ctx, time.Minute)
	defer cancel()
	start := time.Now()
	_, served, _ := c.Fill(cctx, key, "/v1/analyze", []byte(`{}`), decodeAny)
	elapsed := time.Since(start)
	if served {
		t.Fatal("fill served from a black-holed peer")
	}
	if tr.probes.Load() == 0 {
		t.Fatal("cooled-down peer was never probed")
	}
	if elapsed > time.Second {
		t.Fatalf("fill with black-holed probe took %v, want ~ProbeTimeout (50ms)", elapsed)
	}
}

// TestFillOneOwner pins the fill contract: every key has exactly one
// owner. A remote owner that answers serves the fill; one that fails costs
// the fill and nothing else — no other peer is tried, and the caller
// computes locally; a key owned by this node never dials at all.
func TestFillOneOwner(t *testing.T) {
	refuse := func(context.Context, string, []byte) ([]byte, error) { return nil, errors.New("refused") }
	answer := func(context.Context, string, []byte) ([]byte, error) { return []byte(`{"from":"owner"}`), nil }
	for _, tc := range []struct {
		name      string
		owner     string // "http://self" or "http://a"
		fill      func(context.Context, string, []byte) ([]byte, error)
		served    bool
		wantErr   bool
		localKeys int64
	}{
		{name: "remote owner answers", owner: "http://a", fill: answer, served: true},
		{name: "remote owner refuses", owner: "http://a", fill: refuse, wantErr: true},
		{name: "self owns", owner: "http://self", fill: answer, localKeys: 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			trs := map[string]*fakeTransport{
				"http://a": {fill: tc.fill},
				"http://b": {fill: answer},
			}
			c, err := New(Config{
				Self:  "http://self",
				Peers: []string{"http://self", "http://a", "http://b"},
				Dial:  func(u string) PeerTransport { return trs[u] },
			})
			if err != nil {
				t.Fatal(err)
			}
			key := ""
			for i := 0; i < 256; i++ {
				k := fmt.Sprintf("key-%d", i)
				if c.ring().Owner(k) == tc.owner {
					key = k
					break
				}
			}
			if key == "" {
				t.Fatalf("no key owned by %s", tc.owner)
			}
			if owners, err := c.Owners(key); err != nil || len(owners) != 1 || owners[0] != tc.owner {
				t.Fatalf("Owners = (%v, %v), want [%s]", owners, err, tc.owner)
			}
			v, served, err := c.Fill(context.Background(), key, "/v1/analyze", []byte(`{}`), decodeAny)
			if served != tc.served || (err != nil) != tc.wantErr {
				t.Fatalf("Fill = (%v, served=%v, err=%v), want served=%v err=%v", v, served, err, tc.served, tc.wantErr)
			}
			if served {
				if m, ok := v.(map[string]any); !ok || m["from"] != "owner" {
					t.Fatalf("Fill value = %v, want the owner's answer", v)
				}
			}
			wantA := int64(1)
			if tc.owner == "http://self" {
				wantA = 0
			}
			if a, b := trs["http://a"].fills.Load(), trs["http://b"].fills.Load(); a != wantA || b != 0 {
				t.Fatalf("fills: a=%d b=%d, want a=%d b=0 (only the owner is ever asked)", a, b, wantA)
			}
			if got := c.vars.Get(vLocalKeys).(*expvar.Int).Value(); got != tc.localKeys {
				t.Fatalf("local_keys = %d, want %d", got, tc.localKeys)
			}
		})
	}
}

// TestMembershipJoinLeave walks the controller through a join and a leave,
// checking epoch advancement, peer-map reconciliation, idempotency, and
// the self-leave guard.
func TestMembershipJoinLeave(t *testing.T) {
	dialed := make(map[string]int)
	c, err := New(Config{
		Self:  "http://self",
		Peers: []string{"http://self", "http://a"},
		Dial: func(u string) PeerTransport {
			dialed[u]++
			return &fakeTransport{}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	m := c.Membership()
	if m.Epoch() != 1 {
		t.Fatalf("boot epoch = %d, want 1", m.Epoch())
	}

	epoch, err := m.Join("http://b")
	if err != nil || epoch != 2 {
		t.Fatalf("Join = (%d, %v), want epoch 2", epoch, err)
	}
	if dialed["http://b"] != 1 {
		t.Fatalf("join did not dial the new peer (dialed=%v)", dialed)
	}
	if c.peerFor("http://b") == nil {
		t.Fatal("joined peer missing from the health map")
	}
	if epoch, err := m.Join("http://b"); err != nil || epoch != 2 {
		t.Fatalf("idempotent Join = (%d, %v), want epoch 2 unchanged", epoch, err)
	}

	if _, err := m.Leave("http://self"); err == nil {
		t.Fatal("Leave(self) succeeded, want rejection")
	}
	epoch, err = m.Leave("http://a")
	if err != nil || epoch != 3 {
		t.Fatalf("Leave = (%d, %v), want epoch 3", epoch, err)
	}
	if c.peerFor("http://a") != nil {
		t.Fatal("left peer still in the health map")
	}
	if epoch, err := m.Leave("http://a"); err != nil || epoch != 3 {
		t.Fatalf("idempotent Leave = (%d, %v), want epoch 3 unchanged", epoch, err)
	}

	epoch, err = m.Set([]string{"http://a", "http://b"})
	if err != nil || epoch != 4 {
		t.Fatalf("Set = (%d, %v), want epoch 4", epoch, err)
	}
	if got := c.Peers(); len(got) != 3 {
		t.Fatalf("Set membership = %v, want self added back (3 peers)", got)
	}
	if epoch, err := m.Set([]string{"http://a", "http://b", "http://self"}); err != nil || epoch != 4 {
		t.Fatalf("no-op Set = (%d, %v), want epoch 4 unchanged", epoch, err)
	}
}

// TestMembershipHandler exercises the admin endpoint wire format.
func TestMembershipHandler(t *testing.T) {
	c, err := New(Config{
		Self:  "http://self",
		Peers: []string{"http://self"},
		Dial:  func(string) PeerTransport { return &fakeTransport{} },
	})
	if err != nil {
		t.Fatal(err)
	}
	h := c.MembershipHandler()

	post := func(body string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/debug/cluster/membership", strings.NewReader(body)))
		return rec
	}

	if rec := post(`{"join":"http://b"}`); rec.Code != http.StatusOK {
		t.Fatalf("join status = %d: %s", rec.Code, rec.Body)
	} else {
		var resp membershipResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		if resp.Epoch != 2 || len(resp.Peers) != 2 {
			t.Fatalf("join response = %+v, want epoch 2 with 2 peers", resp)
		}
	}
	if rec := post(`{"leave":"http://self"}`); rec.Code != http.StatusUnprocessableEntity {
		t.Fatalf("leave(self) status = %d, want 422", rec.Code)
	}
	if rec := post(`{"join":"http://c","leave":"http://b"}`); rec.Code != http.StatusBadRequest {
		t.Fatalf("ambiguous request status = %d, want 400", rec.Code)
	}
	if rec := post(`{}`); rec.Code != http.StatusBadRequest {
		t.Fatalf("empty request status = %d, want 400", rec.Code)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/debug/cluster/membership", nil))
	if rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("GET status = %d, want 405", rec.Code)
	}
}
