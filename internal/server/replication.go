package server

import (
	"encoding/json"
	"math"
	"net/http"
	"strconv"

	"hputune/internal/inference"
	"hputune/internal/numeric"
	"hputune/internal/store"
)

// Replication surface. A cluster follower keeps a byte-identical
// replica of this node's durable state by polling two endpoints:
//
//	GET /v1/replication/state          — the current snapshot State
//	GET /v1/replication/wal?from=SEQ   — framed WAL records after SEQ
//
// and the cluster's cross-node fit exchange uses two more:
//
//	GET  /v1/replication/aggregates    — this node's ingest partition as
//	                                     additive sufficient statistics
//	POST /v1/replication/fit           — publish a cluster-merged fit
//	                                     through the standard guard
//
// All four are rate-limit exempt (see rateLimitExempt): their only
// clients are the cluster's own followers and merger, and throttling
// them would turn client load into replication or fit-exchange lag.
//
// The WAL reply is the store's durable tail encoded in the on-disk
// frame format (length + CRC + JSON record), so a follower appends the
// body verbatim to its own wal.log and the standard recovery path
// replays it. Only acknowledged (fsynced) records are ever served;
// a 410 with code "compacted" tells the follower the tail no longer
// reaches back to its cursor and it must re-seed from /state.

// nodeHeader carries the serving node's cluster name on replication
// replies so a follower can detect it is polling the wrong process.
const nodeHeader = "X-HT-Node"

// lastSeqHeader reports the sequence of the last record in a WAL reply
// (or the request's cursor when the reply is empty).
const lastSeqHeader = "X-HT-Last-Seq"

// ReplicationStateResponse is the GET /v1/replication/state document.
type ReplicationStateResponse struct {
	// Node is the serving node's cluster name (Config.Node).
	Node string `json:"node"`
	// LastSeq is the last durable WAL sequence folded into State.
	LastSeq uint64 `json:"lastSeq"`
	// State is the full durable snapshot; a follower seeds its replica
	// directory from it and resumes WAL shipping at LastSeq.
	State *store.State `json:"state"`
}

func (s *Server) handleReplicationState(w http.ResponseWriter, r *http.Request) {
	if s.st == nil {
		WriteError(w, http.StatusNotFound, "no durable store on this node (start it with -state-dir)")
		return
	}
	state, err := s.st.State()
	if err != nil {
		WriteError(w, http.StatusInternalServerError, "read state: %v", err)
		return
	}
	w.Header().Set(nodeHeader, s.cfg.Node)
	WriteJSON(w, http.StatusOK, ReplicationStateResponse{
		Node:    s.cfg.Node,
		LastSeq: state.LastSeq,
		State:   state,
	})
}

func (s *Server) handleReplicationWAL(w http.ResponseWriter, r *http.Request) {
	if s.st == nil {
		WriteError(w, http.StatusNotFound, "no durable store on this node (start it with -state-dir)")
		return
	}
	from := uint64(0)
	if q := r.URL.Query().Get("from"); q != "" {
		v, err := strconv.ParseUint(q, 10, 64)
		if err != nil {
			WriteError(w, http.StatusBadRequest, "from=%q is not a sequence number", q)
			return
		}
		from = v
	}
	recs, err := s.st.TailSince(from)
	if err == store.ErrCompacted {
		WriteEnvelope(w, http.StatusGone, CodeCompacted, 0,
			"WAL tail compacted past sequence %d; refetch /v1/replication/state", from)
		return
	}
	if err != nil {
		WriteError(w, http.StatusInternalServerError, "read WAL tail: %v", err)
		return
	}
	var buf []byte
	for _, rec := range recs {
		buf, err = store.EncodeRecordFrame(buf, rec)
		if err != nil {
			WriteError(w, http.StatusInternalServerError, "encode record %d: %v", rec.Seq, err)
			return
		}
	}
	last := from
	if n := len(recs); n > 0 {
		last = recs[n-1].Seq
	}
	w.Header().Set(nodeHeader, s.cfg.Node)
	w.Header().Set(lastSeqHeader, strconv.FormatUint(last, 10))
	w.Header().Set("Content-Type", "application/octet-stream")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(buf)
}

// ReplicationAggregatesResponse is the GET /v1/replication/aggregates
// document: this node's ingest partition as the O(#price levels)
// additive sufficient statistic, with a monotone version so the merger
// can tell fresh partitions from stale ones across polls.
type ReplicationAggregatesResponse struct {
	// Node is the serving node's cluster name (Config.Node).
	Node string `json:"node"`
	// Version orders snapshots of this partition: the last durable WAL
	// sequence on a store-backed node, else the lifetime accepted-record
	// count. It never decreases on one process; a promoted replica may
	// report a smaller version than the primary it replaced (records the
	// primary acknowledged but never shipped are lost with it).
	Version uint64 `json:"version"`
	// Records is the lifetime accepted trace-record count behind Aggs.
	Records uint64 `json:"records"`
	// Aggs is the per-price aggregate map. Summing these maps across
	// every node and fitting the union is exactly equivalent to fitting
	// one process that ingested every partition's records.
	Aggs map[int]inference.PriceAggregate `json:"aggs"`
}

// handleReplicationAggregates serves the node's ingest partition for
// the cluster merger. A store-backed node serves the durable aggregates
// (State waits out in-flight group commits, so a crash can never take
// back what a merge already consumed) versioned by WAL sequence; an
// in-memory node serves the live map versioned by its record count.
func (s *Server) handleReplicationAggregates(w http.ResponseWriter, r *http.Request) {
	resp := ReplicationAggregatesResponse{Node: s.cfg.Node}
	if s.st != nil {
		state, err := s.st.State()
		if err != nil {
			WriteError(w, http.StatusInternalServerError, "read state: %v", err)
			return
		}
		resp.Version = state.LastSeq
		resp.Records = state.Records
		resp.Aggs = state.Aggs
	} else {
		s.ingestMu.Lock()
		aggs := make(map[int]inference.PriceAggregate, len(s.aggs))
		for price, agg := range s.aggs {
			aggs[price] = agg
		}
		s.ingestMu.Unlock()
		resp.Records = s.records.Load()
		resp.Version = resp.Records
		resp.Aggs = aggs
	}
	if resp.Aggs == nil {
		resp.Aggs = map[int]inference.PriceAggregate{}
	}
	w.Header().Set(nodeHeader, s.cfg.Node)
	WriteJSON(w, http.StatusOK, resp)
}

// MergedFitRequest is the POST /v1/replication/fit body: a fit the
// cluster merger computed over the union of every node's aggregates,
// plus the per-node aggregate versions it consumed (journaled for
// audit).
type MergedFitRequest struct {
	Fit     store.FitRecord   `json:"fit"`
	Sources map[string]uint64 `json:"sources,omitempty"`
}

// MergedFitResponse is the POST /v1/replication/fit reply. Published
// false means the guard kept the previous fit; FitPending carries the
// same reason string an ingest re-fit would have reported.
type MergedFitResponse struct {
	Published  bool     `json:"published"`
	Fit        *FitInfo `json:"fit,omitempty"`
	FitPending string   `json:"fitPending,omitempty"`
}

// handleReplicationFit publishes a cluster-merged fit through the exact
// guarded path a local ingest re-fit takes: the slope/rate contract is
// checked, a violating fit is refused with the previous fit kept live,
// and an accepted fit is swapped in atomically and journaled (as a
// merged-fit record, so recovery restores it bit-identically).
func (s *Server) handleReplicationFit(w http.ResponseWriter, r *http.Request) {
	var req MergedFitRequest
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		WriteError(w, badRequestStatus(err), "parse merged fit: %v", err)
		return
	}
	if dec.More() {
		WriteError(w, http.StatusBadRequest, "parse merged fit: trailing data after the request document")
		return
	}
	for _, v := range []float64{req.Fit.Slope, req.Fit.Intercept, req.Fit.R2, req.Fit.SE} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			WriteError(w, http.StatusBadRequest, "merged fit parameter %v is not finite", v)
			return
		}
	}
	if req.Fit.N < 2 || req.Fit.Prices < 2 {
		WriteError(w, http.StatusBadRequest,
			"merged fit over %d points at %d prices; a fit needs >= 2 of each", req.Fit.N, req.Fit.Prices)
		return
	}
	fit := numeric.LinearFit{Slope: req.Fit.Slope, Intercept: req.Fit.Intercept, R2: req.Fit.R2, SE: req.Fit.SE, N: req.Fit.N}
	cand, reason := guardFit(fit, req.Fit.Prices)
	if cand == nil {
		w.Header().Set(nodeHeader, s.cfg.Node)
		WriteJSON(w, http.StatusOK, MergedFitResponse{FitPending: reason})
		return
	}
	// ingestMu serializes the publish + journal pair with handleIngest's,
	// so the WAL's fit order always matches the order the models were
	// actually swapped in.
	s.ingestMu.Lock()
	s.fit.Store(cand)
	if s.st != nil {
		_ = s.st.AppendMergedFit(req.Fit, req.Sources)
	}
	s.ingestMu.Unlock()
	w.Header().Set(nodeHeader, s.cfg.Node)
	WriteJSON(w, http.StatusOK, MergedFitResponse{
		Published: true,
		Fit:       &FitInfo{Slope: fit.Slope, Intercept: fit.Intercept, R2: fit.R2, Prices: req.Fit.Prices},
	})
}
