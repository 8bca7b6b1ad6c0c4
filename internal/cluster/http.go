package cluster

import (
	"encoding/json"
	"net/http"
)

// Handler returns the /debug/cluster handler for the torusd debug sidecar:
// GET serves the Status snapshot as JSON, and ?key=<canonical cache key>
// additionally reports the key's owner (the smoke script uses this to
// find — and then kill — the home shard of a hot key).
func (c *Cluster) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		resp := struct {
			Status
			Key   string `json:"key,omitempty"`
			Owner string `json:"owner,omitempty"`
		}{Status: c.Status()}
		if key := r.URL.Query().Get("key"); key != "" {
			owner, err := c.Owner(key)
			if err != nil {
				http.Error(w, "cluster: ring lookup failed: "+err.Error(), http.StatusInternalServerError)
				return
			}
			resp.Key, resp.Owner = key, owner
		}
		w.Header().Set("Content-Type", "application/json")
		if err := json.NewEncoder(w).Encode(resp); err != nil {
			c.vars.Add(vWriteErrors, 1)
		}
	})
}

// membershipRequest is the admin wire format for POST
// /debug/cluster/membership: exactly one of Join, Leave, or Peers (a
// wholesale Set) per request.
type membershipRequest struct {
	Join  string   `json:"join,omitempty"`
	Leave string   `json:"leave,omitempty"`
	Peers []string `json:"peers,omitempty"`
}

// membershipResponse reports the epoch resulting from an admin membership
// change and the membership it now describes.
type membershipResponse struct {
	Epoch uint64   `json:"epoch"`
	Peers []string `json:"peers"`
}

// MembershipHandler returns the POST /debug/cluster/membership admin
// handler: {"join": url} adds a peer, {"leave": url} removes one, and
// {"peers": [...]} replaces the membership wholesale. The response carries
// the resulting epoch. The handler mutates only this node's view; the
// operator (or the smoke script) POSTs the same change to every live node.
func (c *Cluster) MembershipHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "cluster: membership changes must be POSTed", http.StatusMethodNotAllowed)
			return
		}
		var req membershipRequest
		if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20)).Decode(&req); err != nil {
			http.Error(w, "cluster: bad membership request: "+err.Error(), http.StatusBadRequest)
			return
		}
		set := 0
		if req.Join != "" {
			set++
		}
		if req.Leave != "" {
			set++
		}
		if len(req.Peers) > 0 {
			set++
		}
		if set != 1 {
			http.Error(w, "cluster: exactly one of join, leave, or peers must be set", http.StatusBadRequest)
			return
		}
		m := c.Membership()
		var (
			epoch uint64
			err   error
		)
		switch {
		case req.Join != "":
			epoch, err = m.Join(req.Join)
		case req.Leave != "":
			epoch, err = m.Leave(req.Leave)
		default:
			epoch, err = m.Set(req.Peers)
		}
		if err != nil {
			http.Error(w, "cluster: membership change rejected: "+err.Error(), http.StatusUnprocessableEntity)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		if encErr := json.NewEncoder(w).Encode(membershipResponse{Epoch: epoch, Peers: c.Peers()}); encErr != nil {
			c.vars.Add(vWriteErrors, 1)
		}
	})
}
