package server

import (
	"log"
	"net"
	"net/http"
	"strings"
	"time"

	"hputune/internal/campaign"
	"hputune/internal/htuning"
	"hputune/internal/store"
	"hputune/internal/traffic"
)

// TrafficConfig tunes the hardening layer in front of the handlers:
// admission weighting, per-client rate limiting, CPU shedding and the
// access log. The zero value serves like a plain admission gate — no
// rate limiting, no shedding, 3/4 of the permits open to bulk work.
type TrafficConfig struct {
	// BulkShare is the fraction of MaxInFlight permits that bulk work
	// (solve, solve-heterogeneous, simulate) may occupy; the rest stays
	// reserved for priority work (ingest, campaign starts) so re-tuning
	// never starves behind a solve flood. <= 0 means 0.75; whenever
	// MaxInFlight >= 2 at least one permit is reserved.
	BulkShare float64
	// RatePerClient is the sustained request rate (requests/second)
	// each client identity may hold across the API (health and metrics
	// probes exempt). <= 0 disables rate limiting.
	RatePerClient float64
	// RateBurst is the token-bucket capacity per client.
	// <= 0 means max(1, 2×RatePerClient).
	RateBurst float64
	// MaxClients bounds the tracked rate-limit buckets (LRU eviction).
	// <= 0 means 4096.
	MaxClients int
	// ClientHeader names the request header carrying the client
	// identity for rate limiting and the access log; empty means
	// "X-Client-ID". Requests without the header fall back to the
	// remote address's host part.
	ClientHeader string
	// ShedCPU sheds bulk admissions while the process's sampled CPU
	// utilization (fraction of GOMAXPROCS capacity) is at or above this
	// threshold. <= 0 disables shedding.
	ShedCPU float64
	// AccessLog, when non-nil, receives one line per request:
	// method, path, status, bytes, duration, request id, client.
	AccessLog *log.Logger
}

// DefaultClientHeader identifies clients when TrafficConfig.ClientHeader
// is unset. Exported for the cluster router, which resolves the same
// identity for ring placement and stamps it on forwarded requests.
const DefaultClientHeader = "X-Client-ID"

// ResolveClientKey is the one client-identity rule shared by every
// layer that partitions or budgets by client — this server's rate
// limiter and the cluster router's ingest placement: the client header
// when present (and sanely bounded), else the host part of the remote
// address. The port is always stripped — an ephemeral port would give
// the same client a fresh identity per TCP connection, splitting its
// stream across ring placements and rate buckets. header empty means
// DefaultClientHeader.
func ResolveClientKey(r *http.Request, header string) string {
	if header == "" {
		header = DefaultClientHeader
	}
	if id := r.Header.Get(header); id != "" && len(id) <= 256 {
		return id
	}
	host, _, err := net.SplitHostPort(r.RemoteAddr)
	if err != nil || host == "" {
		return r.RemoteAddr
	}
	return host
}

// clientKey is the rate-limit and log identity of a request.
func (s *Server) clientKey(r *http.Request) string {
	return ResolveClientKey(r, s.clientHeader)
}

// rateLimitExempt excludes liveness and monitoring probes from rate
// limiting — throttling the probes that diagnose an overload would be
// self-defeating — and the replication reads, whose only client is a
// cluster follower polling this node's WAL tail: rate-limiting the
// replica's feed would turn client load into replication lag.
func rateLimitExempt(path string) bool {
	return path == "/v1/healthz" || path == "/v1/metrics" ||
		strings.HasPrefix(path, "/v1/replication/")
}

// admit applies the node-only admission that sits inside the edge:
// per-client rate limiting (health, metrics and replication probes
// exempt) before the route mux. The edge echoes the request id and
// envelopes the 429.
func (s *Server) admit(w http.ResponseWriter, r *http.Request) {
	if !rateLimitExempt(r.URL.Path) {
		client := s.clientKey(r)
		if ok, retry := s.limiter.Allow(client); !ok {
			WriteEnvelope(w, http.StatusTooManyRequests, CodeRateLimited, retry,
				"client %q over the %g request/s limit; wait %dms", client, s.limiter.Rate(), int64((retry+time.Millisecond-1)/time.Millisecond))
			return
		}
	}
	s.edge.ServeHTTP(w, r)
}

// logAccess writes the access-log line of one finished request.
func (s *Server) logAccess(r *http.Request, status int, bytes int64, elapsed time.Duration) {
	s.accessLog.Printf("%s %s %d %dB %.3fms rid=%s client=%s",
		r.Method, r.URL.Path, status, bytes,
		float64(elapsed)/float64(time.Millisecond), RequestID(r), s.clientKey(r))
}

// MetricsSnapshot is the GET /v1/metrics document: per-endpoint latency
// histograms plus gauges and counters from every layer of the serving
// process — admission gate, rate limiter, CPU load, estimator cache,
// campaign manager, request counters and (when durable) the WAL.
// It extends the CacheStats pattern: one point-in-time copy, plain
// JSON, safe to scrape at any frequency.
type MetricsSnapshot struct {
	// Endpoints maps route patterns (plus "other" for unmatched
	// requests) to their latency histograms; times in milliseconds.
	Endpoints map[string]traffic.HistogramSnapshot `json:"endpoints"`
	// Admission is the two-class gate state (permits, occupancy,
	// rejections, sheds).
	Admission traffic.GateSnapshot `json:"admission"`
	// RateLimit is the per-client limiter state (zero when disabled).
	RateLimit traffic.LimiterStats `json:"rateLimit"`
	// Load is the sampled process CPU utilization in [0, 1] (fraction
	// of GOMAXPROCS capacity).
	Load float64 `json:"load"`
	// Cache is the shared estimator's memo-cache counters.
	Cache htuning.CacheStats `json:"cache"`
	// Campaigns is the campaign manager's occupancy and lifetime
	// counters.
	Campaigns campaign.Stats `json:"campaigns"`
	// Serve is the request-level counter block also served by /v1/stats.
	Serve ServeStats `json:"serve"`
	// Store is the WAL append/fsync/compaction state; nil for an
	// in-memory server.
	Store *store.Metrics `json:"store,omitempty"`
}

// Metrics snapshots the full observability surface (the /v1/metrics
// document) for embedders.
func (s *Server) Metrics() MetricsSnapshot {
	return MetricsSnapshot{
		Endpoints: s.edge.Histograms(),
		Admission: s.gate.Snapshot(),
		RateLimit: s.limiter.Stats(),
		Load:      s.loadSampler.Load(),
		Cache:     s.est.CacheStats(),
		Campaigns: s.campaigns.Stats(),
		Serve:     s.serveStats(),
		Store:     s.storeMetrics(),
	}
}

func (s *Server) storeMetrics() *store.Metrics {
	if s.st == nil {
		return nil
	}
	m := s.st.Metrics()
	return &m
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	WriteJSON(w, http.StatusOK, s.Metrics())
}
