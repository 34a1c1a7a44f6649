package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"hputune/internal/campaign"
	"hputune/internal/server"
	"hputune/internal/spec"
	"hputune/internal/store"
	"hputune/internal/traffic"
)

// Router fronts a Cluster with the same /v1 envelope API each node
// serves, so a client cannot tell one htuned from N:
//
//   - POST /v1/campaigns scatters the spec: each campaign in the
//     document goes to the ring owner of its sub-spec, fleet presets
//     are split per index, and the returned ids are prefixed
//     "<node>-" so every later GET/DELETE routes back to the owner.
//   - POST /v1/ingest partitions by client identity on the ring, so
//     one client's trace stream always lands on one node's WAL.
//   - POST /v1/solve, /v1/solve-heterogeneous and /v1/simulate are
//     stateless and round-robin across the healthy pool.
//   - GET /v1/stats and /v1/metrics fan out and return a cluster
//     document: {"router": ..., "nodes": {name: node-reply}}.
//
// Error replies reuse the nodes' envelope codes verbatim; the router's
// own failures (unknown node, unreachable node) carry the same shape.
type Router struct {
	cl     *Cluster
	client *http.Client
	edge   *server.Edge

	// replica, when set (SetReplicaSource), materializes a node's
	// follower replica state for stale-allowed reads while the node is
	// down but not yet promoted.
	replica func(node string) (*store.State, error)

	rr         atomic.Uint64
	proxied    atomic.Uint64
	scattered  atomic.Uint64
	failovers  atomic.Uint64
	staleReads atomic.Uint64
}

// NewRouter builds a router over cl; client nil means a 30s-timeout
// default.
func NewRouter(cl *Cluster, client *http.Client) *Router {
	if client == nil {
		client = &http.Client{Timeout: 30 * time.Second}
	}
	rt := &Router{cl: cl, client: client}
	rt.edge = server.NewEdge(map[string]http.HandlerFunc{
		"POST /v1/solve":               rt.roundRobin,
		"POST /v1/solve-heterogeneous": rt.roundRobin,
		"POST /v1/simulate":            rt.roundRobin,
		"POST /v1/ingest":              rt.handleIngest,
		"POST /v1/campaigns":           rt.handleCampaignStart,
		"GET /v1/campaigns":            rt.handleCampaignList,
		"GET /v1/campaigns/{id}":       rt.handleCampaignByID,
		"DELETE /v1/campaigns/{id}":    rt.handleCampaignByID,
		"GET /v1/stats":                rt.handleFanout,
		"GET /v1/metrics":              rt.handleFanout,
		"GET /v1/healthz":              server.Healthz,
	})
	return rt
}

// Handler mounts the nodes' own HTTP edge (body cap, request ids,
// envelope interception, latency histograms) around the routes.
func (rt *Router) Handler() http.Handler {
	return rt.edge.Handler(rt.edge, nil)
}

// forward proxies one request body to a node and relays the reply. An
// unreachable node becomes a 503 with the overloaded code and a retry
// hint.
func (rt *Router) forward(w http.ResponseWriter, r *http.Request, node, path string, body []byte) {
	status, raw, err := rt.call(r, node, path, body)
	if err != nil {
		server.WriteOverloaded(w, time.Second, "node %q unreachable: %v", node, err)
		return
	}
	relay(w, status, raw)
}

// relay copies a node reply — status, content type and body — back
// verbatim, so envelope replies survive the hop untouched.
func relay(w http.ResponseWriter, status int, raw []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(raw)
}

// call issues one node request and returns its status and body.
func (rt *Router) call(r *http.Request, node, path string, body []byte) (int, []byte, error) {
	base, ok := rt.cl.NodeURL(node)
	if !ok {
		return 0, nil, fmt.Errorf("unknown node")
	}
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(r.Context(), r.Method, base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	// The client identity must survive the hop: the nodes rate-limit
	// and partition on it. Header-less clients get their resolved
	// identity (remote host, port stripped) stamped on — otherwise every
	// such client would share one node-side rate bucket keyed by the
	// router's own address, and one noisy client could exhaust the
	// cluster's whole budget for everyone behind the proxy. A
	// caller-supplied value is forwarded verbatim. The request id the
	// edge accepted or minted goes along, so one id follows the request
	// from the router to the node.
	for _, h := range []string{server.DefaultClientHeader, "Content-Type"} {
		if v := r.Header.Get(h); v != "" {
			req.Header.Set(h, v)
		}
	}
	if rid := server.RequestID(r); rid != "" {
		req.Header.Set(server.RequestIDHeader, rid)
	}
	if req.Header.Get(server.DefaultClientHeader) == "" {
		if key := server.ResolveClientKey(r, ""); key != "" {
			req.Header.Set(server.DefaultClientHeader, key)
		}
	}
	resp, err := rt.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(io.LimitReader(resp.Body, server.MaxBodyBytes+1))
	if err != nil {
		return 0, nil, err
	}
	if len(raw) > server.MaxBodyBytes {
		// Forwarding the capped prefix would pass a truncated, invalid
		// body off as the node's reply.
		return 0, nil, fmt.Errorf("reply exceeds the %d-byte cap", server.MaxBodyBytes)
	}
	rt.proxied.Add(1)
	return resp.StatusCode, raw, nil
}

// readBody drains the (capped) request body.
func readBody(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	raw, err := io.ReadAll(r.Body)
	if err != nil {
		status := http.StatusBadRequest
		if _, ok := err.(*http.MaxBytesError); ok {
			status = http.StatusRequestEntityTooLarge
		}
		server.WriteError(w, status, "read request body: %v", err)
		return nil, false
	}
	return raw, true
}

// roundRobin sends stateless bulk work to the next healthy node.
func (rt *Router) roundRobin(w http.ResponseWriter, r *http.Request) {
	body, ok := readBody(w, r)
	if !ok {
		return
	}
	pool := rt.cl.Healthy()
	if len(pool) == 0 {
		server.WriteOverloaded(w, time.Second, "no healthy nodes")
		return
	}
	node := pool[rt.rr.Add(1)%uint64(len(pool))]
	rt.forward(w, r, node, r.URL.Path, body)
}

// handleIngest partitions trace batches by client identity: the same
// client's stream always reaches the same node's estimator and WAL.
// The identity is the shared server rule — header when present, else
// the remote host with the port stripped. Using the raw remote address
// here would hand a header-less client a fresh ephemeral port (hence a
// fresh placement) per TCP connection, splitting its stream across
// nodes.
func (rt *Router) handleIngest(w http.ResponseWriter, r *http.Request) {
	body, ok := readBody(w, r)
	if !ok {
		return
	}
	key := server.ResolveClientKey(r, "")
	node := rt.cl.Place("ingest:" + key)
	if node == "" {
		server.WriteOverloaded(w, time.Second, "empty cluster")
		return
	}
	rt.forward(w, r, node, "/v1/ingest", body)
}

// startDoc is the router's minimal view of a campaign-start document —
// just enough structure to scatter it. Field validation stays on the
// nodes; DisallowUnknownFields here only catches documents the scatter
// would misroute.
type startDoc struct {
	Campaign  json.RawMessage   `json:"campaign"`
	Campaigns []json.RawMessage `json:"campaigns"`
	Fleet     *fleetDoc         `json:"fleet"`
}

type fleetDoc struct {
	Preset string `json:"preset"`
	Seed   uint64 `json:"seed"`
	Index  *int   `json:"index"`
}

// subStart is one scattered unit: a single-campaign sub-document and
// its placement key.
type subStart struct {
	doc []byte
	key string
}

// scatter splits a start document into per-campaign sub-documents.
func scatter(raw []byte) ([]subStart, error) {
	var doc startDoc
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		return nil, err
	}
	kinds := 0
	for _, present := range []bool{doc.Campaign != nil, doc.Campaigns != nil, doc.Fleet != nil} {
		if present {
			kinds++
		}
	}
	if kinds != 1 {
		return nil, fmt.Errorf(`exactly one of "campaign", "campaigns" or "fleet" must be set`)
	}
	switch {
	case doc.Campaign != nil:
		return []subStart{{doc: raw, key: "campaign:" + string(doc.Campaign)}}, nil
	case doc.Campaigns != nil:
		subs := make([]subStart, len(doc.Campaigns))
		for i, c := range doc.Campaigns {
			sub, err := json.Marshal(map[string]json.RawMessage{"campaign": c})
			if err != nil {
				return nil, err
			}
			subs[i] = subStart{doc: sub, key: fmt.Sprintf("campaigns:%d:%s", i, c)}
		}
		return subs, nil
	default:
		if doc.Fleet.Index != nil {
			return []subStart{{doc: raw, key: fmt.Sprintf("fleet:%s:%d:%d", doc.Fleet.Preset, doc.Fleet.Seed, *doc.Fleet.Index)}}, nil
		}
		// Expand the preset locally (the expansion is deterministic) only
		// to learn its size, then ship one indexed sub-spec per campaign;
		// each node re-expands its own index identically.
		cfgs, err := spec.ParseCampaigns(raw, spec.BuildOpts{})
		if err != nil {
			return nil, err
		}
		subs := make([]subStart, len(cfgs))
		for i := range cfgs {
			sub, err := json.Marshal(map[string]any{"fleet": map[string]any{
				"preset": doc.Fleet.Preset, "seed": doc.Fleet.Seed, "index": i,
			}})
			if err != nil {
				return nil, err
			}
			subs[i] = subStart{doc: sub, key: fmt.Sprintf("fleet:%s:%d:%d", doc.Fleet.Preset, doc.Fleet.Seed, i)}
		}
		return subs, nil
	}
}

// handleCampaignStart scatters the document, starts each sub-campaign
// on its ring owner, and replies with the cluster-wide prefixed ids.
// On a partial failure the already-started campaigns are canceled and
// the failing node's envelope is propagated verbatim.
func (rt *Router) handleCampaignStart(w http.ResponseWriter, r *http.Request) {
	body, ok := readBody(w, r)
	if !ok {
		return
	}
	subs, err := scatter(body)
	if err != nil {
		server.WriteError(w, http.StatusBadRequest, "scatter campaign spec: %v", err)
		return
	}
	if rt.cl.Place("probe") == "" {
		server.WriteOverloaded(w, time.Second, "empty cluster")
		return
	}
	var started []string // prefixed ids, in sub order
	rollback := func() {
		for _, id := range started {
			node, rest, ok := splitID(id)
			if !ok {
				continue
			}
			req, err := http.NewRequest(http.MethodDelete, "", nil)
			if err != nil {
				continue
			}
			_, _, _ = rt.call(req, node, "/v1/campaigns/"+rest, nil)
		}
	}
	for _, sub := range subs {
		node := rt.cl.Place(sub.key)
		status, raw, err := rt.call(r, node, "/v1/campaigns", sub.doc)
		if err != nil {
			rollback()
			server.WriteOverloaded(w, time.Second, "node %q unreachable: %v", node, err)
			return
		}
		if status != http.StatusAccepted {
			rollback()
			relay(w, status, raw)
			return
		}
		var reply server.CampaignStartResponse
		if err := json.Unmarshal(raw, &reply); err != nil || len(reply.IDs) != 1 {
			rollback()
			server.WriteError(w, http.StatusInternalServerError,
				"node %q start reply %q did not carry exactly one id", node, raw)
			return
		}
		started = append(started, node+"-"+reply.IDs[0])
	}
	rt.scattered.Add(uint64(len(started)))
	server.WriteJSON(w, http.StatusAccepted, server.CampaignStartResponse{IDs: started})
}

// splitID cuts a cluster-wide campaign id "<node>-<id>" at the first
// '-' (node names cannot contain one).
func splitID(id string) (node, rest string, ok bool) {
	return strings.Cut(id, "-")
}

// SetReplicaSource installs the stale-read hook: a function that
// materializes the named node's follower replica state (and fails when
// there is no usable replica — never synced, already promoted, or
// unreadable). With it set, GET reads for a node that cannot be reached
// are served from its replica, clearly labeled stale; writes keep
// failing with 503 until the watchdog promotes the replica.
func (rt *Router) SetReplicaSource(src func(node string) (*store.State, error)) {
	rt.replica = src
}

// replicaState resolves a node's replica state for a stale read, or nil
// when stale serving is not possible (no source configured, the node
// was already promoted, or the replica is unreadable).
func (rt *Router) replicaState(node string) *store.State {
	if rt.replica == nil {
		return nil
	}
	st, err := rt.replica(node)
	if err != nil || st == nil {
		return nil
	}
	return st
}

// staleHeader labels every reply served from a follower replica rather
// than the owning node.
const staleHeader = "X-HT-Stale"

// replicaResult rebuilds a campaign's Result view from its durable
// replica state — the same mapping a promoted server's Restore applies:
// the checkpoint carries every scalar, the retained rounds ride beside
// it, and convergence is a function of the status.
func replicaResult(cs *store.CampaignState) campaign.Result {
	chk := cs.Checkpoint
	return campaign.Result{
		Name:          chk.Name,
		Status:        chk.Status,
		Reason:        chk.Reason,
		RoundsRun:     chk.RoundsRun,
		DroppedRounds: chk.Dropped,
		Rounds:        cs.Rounds,
		Spent:         chk.Spent,
		Remaining:     chk.Remaining,
		Converged:     chk.Status == campaign.StatusConverged,
		Fit:           chk.Fit,
		TotalMakespan: chk.TotalMakespan,
	}
}

// handleCampaignByID routes GET and DELETE for one campaign back to
// its owner and rewrites the reply id to the cluster-wide form. When
// the owner is unreachable, a GET falls back to the node's follower
// replica (stale-labeled); a DELETE still fails — writes wait for
// promotion.
func (rt *Router) handleCampaignByID(w http.ResponseWriter, r *http.Request) {
	full := r.PathValue("id")
	node, rest, ok := splitID(full)
	if !ok {
		server.WriteError(w, http.StatusNotFound, "campaign id %q has no node prefix", full)
		return
	}
	if _, known := rt.cl.NodeURL(node); !known {
		server.WriteError(w, http.StatusNotFound, "unknown node %q in campaign id %q", node, full)
		return
	}
	status, raw, err := rt.call(r, node, "/v1/campaigns/"+rest, nil)
	if err != nil {
		if r.Method == http.MethodGet {
			if st := rt.replicaState(node); st != nil {
				rt.serveReplicaCampaign(w, st, node, full, rest)
				return
			}
		}
		server.WriteOverloaded(w, time.Second, "node %q unreachable: %v", node, err)
		return
	}
	if status == http.StatusOK {
		var reply server.CampaignGetResponse
		if err := json.Unmarshal(raw, &reply); err == nil {
			reply.ID = full
			server.WriteJSON(w, status, reply)
			return
		}
	}
	relay(w, status, raw)
}

// serveReplicaCampaign answers a campaign GET from a node's follower
// replica: correct as of the replica's last shipped record, labeled
// stale in both the body and the X-HT-Stale header.
func (rt *Router) serveReplicaCampaign(w http.ResponseWriter, st *store.State, node, full, rest string) {
	cs, ok := st.Campaigns[rest]
	if !ok {
		// A finished campaign may have been archived out of live state.
		for i := range st.Archived {
			if st.Archived[i].ID == rest {
				cs = &store.CampaignState{Checkpoint: st.Archived[i].Checkpoint, Rounds: st.Archived[i].Rounds}
				ok = true
				break
			}
		}
	}
	if !ok {
		server.WriteError(w, http.StatusNotFound, "no campaign %q on node %q's replica (stale read; the node itself is unreachable)", rest, node)
		return
	}
	rt.staleReads.Add(1)
	w.Header().Set(staleHeader, node)
	server.WriteJSON(w, http.StatusOK, server.CampaignGetResponse{ID: full, Stale: true, Result: replicaResult(cs)})
}

// handleCampaignList fans out, prefixes every summary id, and merges.
// Unreachable nodes contribute their follower replicas' campaigns
// instead (when a replica source is configured), with the node named in
// staleNodes so a reader knows which summaries may trail.
func (rt *Router) handleCampaignList(w http.ResponseWriter, r *http.Request) {
	var all []campaign.Summary
	var stale []string
	for _, n := range rt.cl.Nodes() {
		status, raw, err := rt.call(r, n.Name, "/v1/campaigns", nil)
		if err != nil || status != http.StatusOK {
			// The node is down: list its replica's view until promotion
			// brings the campaigns back live.
			if st := rt.replicaState(n.Name); st != nil {
				for _, id := range sortedStateCampaignIDs(st) {
					cs := st.Campaigns[id]
					all = append(all, campaign.Summary{
						ID:        n.Name + "-" + id,
						Name:      cs.Checkpoint.Name,
						Status:    cs.Checkpoint.Status,
						RoundsRun: cs.Checkpoint.RoundsRun,
						Spent:     cs.Checkpoint.Spent,
						Converged: cs.Checkpoint.Status == campaign.StatusConverged,
					})
				}
				rt.staleReads.Add(1)
				stale = append(stale, n.Name)
			}
			continue
		}
		var reply server.CampaignListResponse
		if err := json.Unmarshal(raw, &reply); err != nil {
			continue
		}
		for _, sum := range reply.Campaigns {
			sum.ID = n.Name + "-" + sum.ID
			all = append(all, sum)
		}
	}
	sort.Slice(all, func(i, j int) bool { return all[i].ID < all[j].ID })
	if len(stale) > 0 {
		w.Header().Set(staleHeader, strings.Join(stale, ","))
	}
	server.WriteJSON(w, http.StatusOK, server.CampaignListResponse{Campaigns: all, StaleNodes: stale})
}

// sortedStateCampaignIDs orders a replica state's campaign ids for a
// deterministic listing.
func sortedStateCampaignIDs(st *store.State) []string {
	ids := make([]string, 0, len(st.Campaigns))
	for id := range st.Campaigns {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// RouterStats is the router's own counter block in the fan-out docs.
type RouterStats struct {
	// Proxied counts node requests issued.
	Proxied uint64 `json:"proxied"`
	// Scattered counts campaigns started through the scatter path.
	Scattered uint64 `json:"scattered"`
	// Failovers counts follower promotions (maintained by cmd/htrouter).
	Failovers uint64 `json:"failovers"`
	// StaleReads counts reads served from follower replicas while their
	// nodes were down but not yet promoted.
	StaleReads uint64 `json:"staleReads"`
	// Nodes is the membership view.
	Nodes []NodeStatus `json:"nodes"`
	// Endpoints are the router's own per-route latency histograms.
	Endpoints map[string]traffic.HistogramSnapshot `json:"endpoints"`
}

// Stats snapshots the router.
func (rt *Router) Stats() RouterStats {
	return RouterStats{
		Proxied:    rt.proxied.Load(),
		Scattered:  rt.scattered.Load(),
		Failovers:  rt.failovers.Load(),
		StaleReads: rt.staleReads.Load(),
		Nodes:      rt.cl.Nodes(),
		Endpoints:  rt.edge.Histograms(),
	}
}

// AddFailover bumps the failover counter (cmd/htrouter calls it at
// each promotion).
func (rt *Router) AddFailover() { rt.failovers.Add(1) }

// staleNodeDoc is an unreachable node's entry in the stats/metrics
// fan-out when its follower replica could stand in: a durable-state
// summary, explicitly labeled — not the node's own counters, which died
// with the process.
type staleNodeDoc struct {
	Stale bool `json:"stale"`
	// LastSeq is the replica's durable cursor; Records and Campaigns
	// summarize the replicated state behind it.
	LastSeq   uint64 `json:"lastSeq"`
	Records   uint64 `json:"records"`
	Campaigns int    `json:"campaigns"`
	Archived  int    `json:"archived"`
}

// handleFanout serves GET /v1/stats and /v1/metrics as a cluster
// document: the router's own counters plus each node's verbatim reply.
// An unreachable node contributes a stale-labeled summary of its
// follower replica instead of silently vanishing from the document.
func (rt *Router) handleFanout(w http.ResponseWriter, r *http.Request) {
	nodes := make(map[string]json.RawMessage)
	for _, n := range rt.cl.Nodes() {
		status, raw, err := rt.call(r, n.Name, r.URL.Path, nil)
		if err != nil || status != http.StatusOK {
			if st := rt.replicaState(n.Name); st != nil {
				doc, merr := json.Marshal(staleNodeDoc{
					Stale: true, LastSeq: st.LastSeq, Records: st.Records,
					Campaigns: len(st.Campaigns), Archived: len(st.Archived),
				})
				if merr == nil {
					rt.staleReads.Add(1)
					nodes[n.Name] = doc
				}
			}
			continue
		}
		nodes[n.Name] = raw
	}
	server.WriteJSON(w, http.StatusOK, map[string]any{"router": rt.Stats(), "nodes": nodes})
}
