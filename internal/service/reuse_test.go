package service

import (
	"bytes"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
)

// reuseRequest is one fresh key of TestReusedPlacementsAnswerAsFresh.
type reuseRequest struct{ path, body string }

// reuseRequests returns n distinct misses over every placement endpoint:
// random, multi-linear, shifted-diagonal and full placements on five tori,
// analyzed under four routings (FAR on the linear family runs the symmetry
// engine on its recorded group), bounded, and bisected three ways. The
// order is shuffled, so consecutive builds differ in shape and spec.
func reuseRequests(n int) []reuseRequest {
	var reqs []reuseRequest
	for _, kd := range [][2]int{{4, 2}, {6, 2}, {8, 2}, {5, 3}, {4, 3}} {
		k, d := kd[0], kd[1]
		nodes := k * k
		if d == 3 {
			nodes *= k
		}
		var pls []string
		for seed := 1; seed <= 12; seed++ {
			pls = append(pls, fmt.Sprintf("random:%d:%d", 2+seed*nodes/24, seed))
		}
		for s := 0; s < k; s++ {
			pls = append(pls, fmt.Sprintf("diagonal:%d", s))
			for tc := 1; tc <= 3; tc++ {
				pls = append(pls, fmt.Sprintf("multi:%d:%d", tc, s))
			}
		}
		pls = append(pls, "full")
		for _, pl := range pls {
			head := fmt.Sprintf(`{"k":%d,"d":%d,"placement":%q`, k, d, pl)
			for _, r := range []string{"odr", "udr", "far", "udr-multi"} {
				reqs = append(reqs, reuseRequest{"/v1/analyze", head + fmt.Sprintf(`,"routing":%q}`, r)})
			}
			reqs = append(reqs, reuseRequest{"/v1/bounds", head + "}"})
			for _, m := range []string{"sweep", "best-sweep", "dimension"} {
				reqs = append(reqs, reuseRequest{"/v1/bisect", head + fmt.Sprintf(`,"method":%q}`, m)})
			}
		}
	}
	rand.New(rand.NewSource(31)).Shuffle(len(reqs), func(i, j int) { reqs[i], reqs[j] = reqs[j], reqs[i] })
	return reqs[:n]
}

// TestReusedPlacementsAnswerAsFresh serves 600 fresh misses through one
// server, four clients at once, so nearly every placement is built into
// buffers an earlier miss of another shape and spec released. Every 16th
// key's cached body must then equal, byte for byte apart from the cached
// stamp, a fresh server's answer computed with the placement pool emptied
// first.
func TestReusedPlacementsAnswerAsFresh(t *testing.T) {
	const misses = 600
	reqs := reuseRequests(misses)
	s := New(Config{Workers: 2, QueueDepth: 16, CacheSize: 1024})
	defer s.Close()
	post := func(h http.Handler, r reuseRequest) []byte {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, r.path, strings.NewReader(r.body)))
		if rec.Code != http.StatusOK {
			t.Errorf("%s %s: status %d: %s", r.path, r.body, rec.Code, rec.Body)
		}
		return rec.Body.Bytes()
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := g; i < misses; i += 4 {
				if body := post(s.Handler(), reqs[i]); !bytes.Contains(body, []byte(`"cached":false`)) {
					t.Errorf("%s %s: not a miss: %s", reqs[i].path, reqs[i].body, body)
				}
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	fresh := New(Config{Workers: 1})
	defer fresh.Close()
	for i := 0; i < misses; i += 16 {
		cached := post(s.Handler(), reqs[i])
		if !bytes.Contains(cached, []byte(`"cached":true`)) {
			t.Fatalf("%s %s: not cached: %s", reqs[i].path, reqs[i].body, cached)
		}
		cached = bytes.Replace(cached, []byte(`"cached":true`), []byte(`"cached":false`), 1)
		runtime.GC()
		runtime.GC()
		if want := post(fresh.Handler(), reqs[i]); !bytes.Equal(cached, want) {
			t.Errorf("%s %s: cached body\n%s\nfresh server answers\n%s", reqs[i].path, reqs[i].body, cached, want)
		}
	}
}
