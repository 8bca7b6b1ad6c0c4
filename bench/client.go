package bench

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"time"
)

// client is the generator's thin JSON-over-HTTP client. It owns its
// transport, capped at nproc connections per host, instead of using
// service.Client: that client cannot take a transport, and the in-process
// peer-fill clients already share http.DefaultTransport, so capping the
// default would throttle the cluster's own traffic rather than the
// generator's.
type client struct {
	tr *http.Transport
	hc *http.Client
}

func newClient(nproc int) *client {
	tr := &http.Transport{
		MaxConnsPerHost:     nproc,
		MaxIdleConnsPerHost: nproc,
		IdleConnTimeout:     30 * time.Second,
		DisableCompression:  true,
	}
	return &client{tr: tr, hc: &http.Client{Transport: tr}}
}

// do sends one request and reads the whole response body. err reports
// transport failures only; the caller judges the status.
func (c *client) do(ctx context.Context, method, url string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	data, err := io.ReadAll(resp.Body)
	if cerr := resp.Body.Close(); err == nil {
		err = cerr
	}
	return resp.StatusCode, data, err
}

// waitReady polls url's /readyz until it answers 200 or ctx ends.
func (c *client) waitReady(ctx context.Context, url string) error {
	for {
		status, _, err := c.do(ctx, http.MethodGet, url+"/readyz", nil)
		if err == nil && status == http.StatusOK {
			return nil
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("bench: %s never became ready: %w", url, ctx.Err())
		case <-time.After(time.Millisecond):
		}
	}
}

// close drops idle connections, e.g. to servers that were shut down.
func (c *client) close() { c.tr.CloseIdleConnections() }
