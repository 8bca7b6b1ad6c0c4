package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"torusnet/internal/obs"
)

// APIError is a non-200 response surfaced by Client, carrying the HTTP
// status and the server's error message.
type APIError struct {
	Status  int
	Message string
	// RetryAfter is the parsed Retry-After header (0 when absent): how
	// long the server asked callers to back off on a 429/503. The client
	// never waits on it; a caller that retries may.
	RetryAfter time.Duration
}

func (e *APIError) Error() string {
	return fmt.Sprintf("service: HTTP %d: %s", e.Status, e.Message)
}

// clientMaxBody caps how much of a response body the client will read.
const clientMaxBody = 32 << 20

// Client is a typed HTTP client for a torusd server. Per-call deadlines
// come from the caller's context.
//
// Every call is a single attempt: every error — transport or HTTP —
// surfaces immediately, which is what tests asserting raw 429/504
// behavior and callers with their own retry policies want.
type Client struct {
	base    string
	hc      *http.Client
	maxBody int64
	// peerHop marks every request with PeerHopHeader — the cluster fill
	// loop guard. Only NewPeerFillClient sets it.
	peerHop bool
}

// NewClient builds a client for the given base URL (e.g.
// "http://127.0.0.1:8080").
func NewClient(baseURL string) *Client {
	return &Client{
		base:    strings.TrimRight(baseURL, "/"),
		hc:      &http.Client{Timeout: 5 * time.Minute},
		maxBody: clientMaxBody,
	}
}

// NewPeerFillClient builds the client a cluster node uses to fetch answers
// from a key's home peer: a single-attempt client whose every request
// carries the PeerHopHeader loop guard — the home peer answers from its
// own cache or compute and never fills onward. It satisfies
// cluster.PeerTransport via FillPeer and Ready. Failures surface at once:
// the cluster's per-peer health is the only failure policy, and every
// failed fill falls back to local compute.
//
// The client owns its connection pool, so CloseIdleConnections closes this
// peer's connections and no one else's. A node closes them when it shuts
// down: net/http's Server.Shutdown waits up to 5 s on a connection that
// was dialed but never sent a request, and the shared default transport
// leaves such connections behind.
func NewPeerFillClient(baseURL string) *Client {
	c := NewClient(baseURL)
	c.hc.Transport = http.DefaultTransport.(*http.Transport).Clone()
	c.peerHop = true
	return c
}

// CloseIdleConnections closes the client's connections that carry no
// request, including any dialed and never used.
func (c *Client) CloseIdleConnections() {
	c.hc.CloseIdleConnections()
}

// roundTrip performs one HTTP exchange and fully consumes the response:
// the body is read up to maxBody, any remainder is drained, and the body
// is closed on every path — leaving the underlying connection reusable.
// It reports the status, the (possibly truncated) body, and the parsed
// Retry-After header; err is non-nil only for transport-level failures.
func (c *Client) roundTrip(ctx context.Context, method, path string, payload []byte) (status int, data []byte, retryAfter time.Duration, err error) {
	var body io.Reader
	if payload != nil {
		body = bytes.NewReader(payload)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, body)
	if err != nil {
		return 0, nil, 0, err
	}
	if payload != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if c.peerHop {
		req.Header.Set(PeerHopHeader, "1")
	}
	if traceID := obs.TraceIDFromContext(ctx); traceID != "" {
		// Propagate the caller's trace downstream: the trace ID rides the
		// context, and the outgoing request gets a fresh span ID.
		req.Header.Set(obs.TraceparentHeader, obs.FormatTraceparent(traceID, obs.NewSpanID()))
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, 0, err
	}
	data, readErr := io.ReadAll(io.LimitReader(resp.Body, c.maxBody))
	// Drain whatever the limit left behind: a connection with unread body
	// bytes cannot go back into the keep-alive pool.
	if _, derr := io.Copy(io.Discard, resp.Body); derr != nil && readErr == nil {
		readErr = derr
	}
	if cerr := resp.Body.Close(); cerr != nil && readErr == nil {
		readErr = cerr
	}
	if readErr != nil {
		return resp.StatusCode, nil, 0, readErr
	}
	return resp.StatusCode, data, parseRetryAfter(resp.Header.Get("Retry-After")), nil
}

// parseRetryAfter handles both forms of the header: delay seconds and an
// HTTP date. Unparseable or past values yield 0.
func parseRetryAfter(v string) time.Duration {
	v = strings.TrimSpace(v)
	if v == "" {
		return 0
	}
	if secs, err := strconv.Atoi(v); err == nil {
		if secs < 0 {
			return 0
		}
		return time.Duration(secs) * time.Second
	}
	if at, err := http.ParseTime(v); err == nil {
		if d := time.Until(at); d > 0 {
			return d
		}
	}
	return 0
}

// interpret converts one completed exchange into the caller's result:
// decode on any 2xx (200 responses and the 202 job-accepted bodies),
// *APIError otherwise.
func interpret(status int, data []byte, retryAfter time.Duration, out any) error {
	if status < 200 || status > 299 {
		var apiErr ErrorResponse
		msg := strings.TrimSpace(string(data))
		if json.Unmarshal(data, &apiErr) == nil && apiErr.Error != "" {
			msg = apiErr.Error
		}
		return &APIError{Status: status, Message: msg, RetryAfter: retryAfter}
	}
	if out == nil {
		return nil
	}
	if err := json.Unmarshal(data, out); err != nil {
		return fmt.Errorf("service: decoding response: %w", err)
	}
	return nil
}

// do runs one JSON call as a single attempt. in == nil sends no body;
// out == nil discards the response body.
func (c *Client) do(ctx context.Context, method, path string, in, out any) error {
	var payload []byte
	if in != nil {
		data, merr := json.Marshal(in)
		if merr != nil {
			return fmt.Errorf("service: encoding request: %w", merr)
		}
		payload = data
	}
	status, data, retryAfter, err := c.roundTrip(ctx, method, path, payload)
	if err != nil {
		return err
	}
	return interpret(status, data, retryAfter, out)
}

// Analyze runs POST /v1/analyze.
func (c *Client) Analyze(ctx context.Context, req AnalyzeRequest) (*AnalyzeResponse, error) {
	var out AnalyzeResponse
	if err := c.do(ctx, http.MethodPost, "/v1/analyze", req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Bounds runs POST /v1/bounds.
func (c *Client) Bounds(ctx context.Context, req BoundsRequest) (*BoundsResponse, error) {
	var out BoundsResponse
	if err := c.do(ctx, http.MethodPost, "/v1/bounds", req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Bisect runs POST /v1/bisect.
func (c *Client) Bisect(ctx context.Context, req BisectRequest) (*BisectResponse, error) {
	var out BisectResponse
	if err := c.do(ctx, http.MethodPost, "/v1/bisect", req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Optimize submits an async placement search via POST /v1/optimize. The
// 202 body carries the job id to poll; see Job and WaitJob.
func (c *Client) Optimize(ctx context.Context, req OptimizeRequest) (*JobAccepted, error) {
	var out JobAccepted
	if err := c.do(ctx, http.MethodPost, "/v1/optimize", req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Job fetches one job snapshot via GET /v1/jobs/{id}; unknown ids surface
// as *APIError with status 404.
func (c *Client) Job(ctx context.Context, id string) (*JobSnapshot, error) {
	var out JobSnapshot
	if err := c.do(ctx, http.MethodGet, "/v1/jobs/"+id, nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Jobs lists every tracked job via GET /v1/jobs.
func (c *Client) Jobs(ctx context.Context) ([]JobSnapshot, error) {
	var out []JobSnapshot
	if err := c.do(ctx, http.MethodGet, "/v1/jobs", nil, &out); err != nil {
		return nil, err
	}
	return out, nil
}

// CancelJob cancels a running job (or drops a finished record) via
// DELETE /v1/jobs/{id}. Cancellation is asynchronous: the returned
// snapshot may still read running until the search unwinds; poll for the
// cancelled state.
func (c *Client) CancelJob(ctx context.Context, id string) (*JobSnapshot, error) {
	var out JobSnapshot
	if err := c.do(ctx, http.MethodDelete, "/v1/jobs/"+id, nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// WaitJob polls GET /v1/jobs/{id} every poll interval (≤0 means 50ms)
// until the job leaves the running state, returning its terminal
// snapshot. ctx bounds the wait.
func (c *Client) WaitJob(ctx context.Context, id string, poll time.Duration) (*JobSnapshot, error) {
	if poll <= 0 {
		poll = 50 * time.Millisecond
	}
	for {
		snap, err := c.Job(ctx, id)
		if err != nil {
			return nil, err
		}
		if snap.State != JobStateRunning {
			return snap, nil
		}
		timer := time.NewTimer(poll)
		select {
		case <-ctx.Done():
			timer.Stop()
			return snap, ctx.Err()
		case <-timer.C:
		}
	}
}

// Experiments runs GET /v1/experiments.
func (c *Client) Experiments(ctx context.Context) ([]ExperimentInfo, error) {
	var out []ExperimentInfo
	if err := c.do(ctx, http.MethodGet, "/v1/experiments", nil, &out); err != nil {
		return nil, err
	}
	return out, nil
}

// RunExperiment runs POST /v1/experiments/{id}.
func (c *Client) RunExperiment(ctx context.Context, id string, req ExperimentRequest) (*ExperimentRunResponse, error) {
	var out ExperimentRunResponse
	if err := c.do(ctx, http.MethodPost, "/v1/experiments/"+id, req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Ready probes GET /readyz, returning nil only when the server reports
// itself ready to serve (a not-ready node answers 503, which surfaces as
// *APIError). The cluster layer uses it to re-admit cooled-down peers.
func (c *Client) Ready(ctx context.Context) error {
	return c.do(ctx, http.MethodGet, "/readyz", nil, nil)
}

// Readyz fetches the full GET /readyz body regardless of status (the body
// decodes only on 200; a 503 surfaces as *APIError like any call).
func (c *Client) Readyz(ctx context.Context) (*ReadyResponse, error) {
	var out ReadyResponse
	if err := c.do(ctx, http.MethodGet, "/readyz", nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// FillPeer POSTs a raw canonical request body to path on the peer and
// returns the raw 200 response body, satisfying cluster.PeerTransport.
// The bytes ride the ordinary do path — trace propagation, body
// drain/close — as json.RawMessage in both directions, so nothing is
// re-encoded.
func (c *Client) FillPeer(ctx context.Context, path string, payload []byte) ([]byte, error) {
	var out json.RawMessage
	if err := c.do(ctx, http.MethodPost, path, json.RawMessage(payload), &out); err != nil {
		return nil, err
	}
	return out, nil
}

// Health runs GET /healthz.
func (c *Client) Health(ctx context.Context) (*HealthResponse, error) {
	var out HealthResponse
	if err := c.do(ctx, http.MethodGet, "/healthz", nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Vars fetches the server's metric counters from GET /debug/vars.
func (c *Client) Vars(ctx context.Context) (map[string]any, error) {
	var out struct {
		Torusd map[string]any `json:"torusd"`
	}
	if err := c.do(ctx, http.MethodGet, "/debug/vars", nil, &out); err != nil {
		return nil, err
	}
	return out.Torusd, nil
}
