package server

import (
	"encoding/json"
	"log"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hputune/internal/campaign"
	"hputune/internal/store"
	"hputune/internal/traffic"
)

// doReq issues one request with optional headers and returns the
// response plus decoded envelope (zero when the body is not one).
func doReq(t *testing.T, method, url, body string, hdr map[string]string) (*http.Response, ErrorEnvelope, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw := make([]byte, 0, 512)
	buf := make([]byte, 4096)
	for {
		n, err := resp.Body.Read(buf)
		raw = append(raw, buf[:n]...)
		if err != nil {
			break
		}
	}
	var env ErrorEnvelope
	_ = json.Unmarshal(raw, &env)
	return resp, env, raw
}

// TestErrorEnvelopeParity asserts the satellite contract: every non-2xx
// path — handler rejections, mux-generated 404/405s, admission and
// rate-limit refusals, drain-time refusals — answers with the uniform
// {"error":{code,message,retry_after_ms}} envelope, a known stable
// code, and an X-Request-ID echo.
func TestErrorEnvelopeParity(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxInFlight: 2, Traffic: TrafficConfig{BulkShare: 0.5}})

	// Bad-spec solve must run before the permit grab below: admission
	// precedes parsing, so a held gate would mask the 400.
	if resp, env, raw := doReq(t, "POST", ts.URL+"/v1/solve", `{"budget": `, nil); resp.StatusCode != 400 || env.Error.Code != CodeBadSpec {
		t.Fatalf("bad solve spec: status %d code %q: %s", resp.StatusCode, env.Error.Code, raw)
	}

	// Occupy the single bulk permit so solve overloads deterministically.
	if s.gate.BulkLimit() != 1 {
		t.Fatalf("bulk limit = %d, want 1", s.gate.BulkLimit())
	}
	if !s.gate.TryAcquire(traffic.Bulk) {
		t.Fatal("could not take the bulk permit")
	}
	defer s.gate.Release(traffic.Bulk)
	// Drain the ingest gate for the ingest-overload case.
	var held int
	for s.ingestGate.TryAcquire() {
		held++
	}
	defer func() {
		for ; held > 0; held-- {
			s.ingestGate.Release()
		}
	}()

	cases := []struct {
		name, method, path, body string
		wantStatus               int
		wantCode                 string
		wantRetry                bool
	}{
		{"campaign bad spec", "POST", "/v1/campaigns", `{}`, 400, CodeBadSpec, false},
		{"unknown campaign", "GET", "/v1/campaigns/zzz", "", 404, CodeNotFound, false},
		{"cancel unknown campaign", "DELETE", "/v1/campaigns/zzz", "", 404, CodeNotFound, false},
		{"unknown route", "GET", "/v1/nope", "", 404, CodeNotFound, false},
		{"method not allowed", "GET", "/v1/solve", "", 405, CodeMethodNotAllowed, false},
		{"solve overloaded", "POST", "/v1/solve", specJSON(0), 503, CodeOverloaded, true},
		{"simulate overloaded", "POST", "/v1/simulate", `{"budget":10}`, 503, CodeOverloaded, true},
		{"ingest overloaded", "POST", "/v1/ingest", "x", 503, CodeOverloaded, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, env, raw := doReq(t, tc.method, ts.URL+tc.path, tc.body, nil)
			if resp.StatusCode != tc.wantStatus {
				t.Fatalf("status %d, want %d: %s", resp.StatusCode, tc.wantStatus, raw)
			}
			if env.Error.Code != tc.wantCode || env.Error.Message == "" {
				t.Errorf("envelope %+v, want code %q with a message: %s", env.Error, tc.wantCode, raw)
			}
			if got := resp.Header.Get("Content-Type"); !strings.HasPrefix(got, "application/json") {
				t.Errorf("Content-Type %q, want application/json", got)
			}
			if resp.Header.Get("X-Request-ID") == "" {
				t.Error("no X-Request-ID echo")
			}
			if tc.wantRetry && (env.Error.RetryAfterMS <= 0 || resp.Header.Get("Retry-After") == "") {
				t.Errorf("overload reply without retry hints: %s (Retry-After %q)", raw, resp.Header.Get("Retry-After"))
			}
		})
	}
}

// TestEnvelopeTooLargeAndSuspended covers the remaining codes, each
// needing its own server state: a body over the byte cap (413
// too_large) and a campaign start against a draining manager (503
// suspended).
func TestEnvelopeTooLargeAndSuspended(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	huge := strings.Repeat(" ", MaxBodyBytes+1)
	resp, env, _ := doReq(t, "POST", ts.URL+"/v1/solve", huge, nil)
	if resp.StatusCode != http.StatusRequestEntityTooLarge || env.Error.Code != CodeTooLarge {
		t.Fatalf("oversized body: status %d code %q, want 413 %q", resp.StatusCode, env.Error.Code, CodeTooLarge)
	}

	s.campaigns.Close()
	resp, env, raw := doReq(t, "POST", ts.URL+"/v1/campaigns", repeCampaignSpec, nil)
	if resp.StatusCode != http.StatusServiceUnavailable || env.Error.Code != CodeSuspended {
		t.Fatalf("draining start: status %d code %q (%s), want 503 %q", resp.StatusCode, env.Error.Code, raw, CodeSuspended)
	}
}

func TestRequestIDEcho(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	// Client-supplied ids echo verbatim.
	resp, _, _ := doReq(t, "GET", ts.URL+"/v1/healthz", "", map[string]string{"X-Request-ID": "req-abc.123"})
	if got := resp.Header.Get("X-Request-ID"); got != "req-abc.123" {
		t.Errorf("echoed id %q, want req-abc.123", got)
	}
	// Absent or over-length ids are replaced with generated ones.
	resp1, _, _ := doReq(t, "GET", ts.URL+"/v1/healthz", "", nil)
	id1 := resp1.Header.Get("X-Request-ID")
	resp2, _, _ := doReq(t, "GET", ts.URL+"/v1/healthz", "", map[string]string{"X-Request-ID": strings.Repeat("x", 200)})
	id2 := resp2.Header.Get("X-Request-ID")
	if strings.Contains(id2, "xxx") {
		t.Errorf("over-length client id echoed back: %q", id2)
	}
	if id1 == "" || id2 == "" || id1 == id2 {
		t.Errorf("generated ids %q, %q: want distinct non-empty", id1, id2)
	}
}

// TestRateLimitPerClient drives the token buckets over HTTP: a client
// that exhausts its burst gets 429 with a computed Retry-After, other
// clients are unaffected, and monitoring probes are exempt.
func TestRateLimitPerClient(t *testing.T) {
	_, ts := newTestServer(t, Config{Traffic: TrafficConfig{RatePerClient: 0.001, RateBurst: 2}})
	a := map[string]string{"X-Client-ID": "client-a"}
	for i := 0; i < 2; i++ {
		resp, _, raw := doReq(t, "GET", ts.URL+"/v1/stats", "", a)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d inside burst: status %d: %s", i, resp.StatusCode, raw)
		}
	}
	resp, env, raw := doReq(t, "GET", ts.URL+"/v1/stats", "", a)
	if resp.StatusCode != http.StatusTooManyRequests || env.Error.Code != CodeRateLimited {
		t.Fatalf("over burst: status %d code %q: %s", resp.StatusCode, env.Error.Code, raw)
	}
	// At 0.001 req/s one token takes ~1000s; both hints must say so.
	if env.Error.RetryAfterMS < 900_000 {
		t.Errorf("retry_after_ms = %d, want ~1000000 (computed from bucket state)", env.Error.RetryAfterMS)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" || ra == "1" {
		t.Errorf("Retry-After = %q, want a computed value", ra)
	}
	if resp.Header.Get("X-Request-ID") == "" {
		t.Error("rate-limited reply without X-Request-ID")
	}
	// Another client identity still has its own burst.
	if resp, _, _ := doReq(t, "GET", ts.URL+"/v1/stats", "", map[string]string{"X-Client-ID": "client-b"}); resp.StatusCode != http.StatusOK {
		t.Errorf("client-b throttled by client-a's bucket: %d", resp.StatusCode)
	}
	// Health and metrics probes are exempt however hard they're polled.
	for i := 0; i < 5; i++ {
		if resp, _, _ := doReq(t, "GET", ts.URL+"/v1/healthz", "", a); resp.StatusCode != http.StatusOK {
			t.Fatalf("healthz probe %d throttled: %d", i, resp.StatusCode)
		}
		if resp, _, _ := doReq(t, "GET", ts.URL+"/v1/metrics", "", a); resp.StatusCode != http.StatusOK {
			t.Fatalf("metrics probe %d throttled: %d", i, resp.StatusCode)
		}
	}
}

// TestBulkFloodDoesNotStarveCampaigns is the two-class acceptance test:
// with every bulk permit pinned by a solve flood, a campaign fleet must
// still start, run every round and settle before its deadline, and
// ingest must still be admitted. Run with -race in CI.
func TestBulkFloodDoesNotStarveCampaigns(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxInFlight: 2, Workers: 1, Traffic: TrafficConfig{BulkShare: 0.5}})
	defer s.Close()

	// A live flood: hammer solve from more goroutines than the pool has
	// permits until the campaign settles.
	stop := make(chan struct{})
	var flooders sync.WaitGroup
	var admitted, rejected atomic.Uint64
	for w := 0; w < 6; w++ {
		flooders.Add(1)
		go func(w int) {
			defer flooders.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				resp, _ := postJSON(t, ts.URL+"/v1/solve", specJSON(w+i))
				switch resp.StatusCode {
				case http.StatusOK:
					admitted.Add(1)
				case http.StatusServiceUnavailable:
					rejected.Add(1)
				default:
					t.Errorf("flood solve: status %d", resp.StatusCode)
					return
				}
			}
		}(w)
	}

	start := time.Now()
	ids := startCampaigns(t, ts, repeCampaignSpec)
	out := awaitTerminal(t, ts, ids[0]) // fails the test after 30s
	if out.Status != campaign.StatusConverged {
		t.Errorf("campaign under flood: status %s (%q), want converged", out.Status, out.Reason)
	}
	elapsed := time.Since(start)

	// Ingest (priority class) must be admitted mid-flood.
	resp, raw := postJSON(t, ts.URL+"/v1/ingest", ingestBody(t, []int{2, 3}, 4))
	if resp.StatusCode != http.StatusOK {
		t.Errorf("ingest under flood: status %d: %s", resp.StatusCode, raw)
	}

	close(stop)
	flooders.Wait()
	t.Logf("flood: %d admitted, %d rejected; campaign settled in %v (%d rounds)",
		admitted.Load(), rejected.Load(), elapsed, out.RoundsRun)
}

// TestMetricsRoundTrip drives traffic and checks the /v1/metrics
// document end to end: per-endpoint histograms, admission and limiter
// state, cache and campaign gauges, and — recovered over a store — the
// WAL counters.
func TestMetricsRoundTrip(t *testing.T) {
	st, err := store.Open(t.TempDir(), store.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	s, err := Recover(Config{}, st)
	if err != nil {
		t.Fatal(err)
	}
	ts := newHTTPServer(t, s)

	if resp, raw := postJSON(t, ts.URL+"/v1/solve", specJSON(0)); resp.StatusCode != http.StatusOK {
		t.Fatalf("solve: %d: %s", resp.StatusCode, raw)
	}
	if resp, raw := postJSON(t, ts.URL+"/v1/ingest", ingestBody(t, []int{2, 3}, 4)); resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest: %d: %s", resp.StatusCode, raw)
	}
	if resp, _, _ := doReq(t, "GET", ts.URL+"/v1/nope", "", nil); resp.StatusCode != http.StatusNotFound {
		t.Fatal("expected a 404 for the other-bucket observation")
	}

	resp, err := http.Get(ts.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m MetricsSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}

	solveHist, ok := m.Endpoints["POST /v1/solve"]
	if !ok || solveHist.Count < 1 || solveHist.SumMS <= 0 || len(solveHist.Buckets) == 0 {
		t.Errorf("solve histogram = %+v, want >= 1 observation with buckets", solveHist)
	}
	if solveHist.P99MS < solveHist.P50MS {
		t.Errorf("quantiles out of order: p50 %v > p99 %v", solveHist.P50MS, solveHist.P99MS)
	}
	if h := m.Endpoints["POST /v1/ingest"]; h.Count < 1 {
		t.Errorf("ingest histogram empty: %+v", h)
	}
	if h := m.Endpoints["other"]; h.Count < 1 {
		t.Errorf("unmatched 404 not pooled under \"other\": %+v", h)
	}
	if m.Admission.Limit < 1 || m.Admission.BulkLimit < 1 || m.Admission.BulkLimit > m.Admission.Limit {
		t.Errorf("admission = %+v", m.Admission)
	}
	if m.RateLimit.Rate != 0 {
		t.Errorf("rate limiter should be disabled: %+v", m.RateLimit)
	}
	if m.Load < 0 || m.Load > 1 {
		t.Errorf("load = %v outside [0, 1]", m.Load)
	}
	if m.Cache.Capacity <= 0 {
		t.Errorf("cache gauge = %+v", m.Cache)
	}
	if m.Campaigns.MaxActive <= 0 {
		t.Errorf("campaign gauge = %+v", m.Campaigns)
	}
	if m.Serve.Solves < 1 || m.Serve.Ingests < 1 {
		t.Errorf("serve counters = %+v", m.Serve)
	}
	if m.Store == nil || m.Store.Appends < 1 || m.Store.LastSeq < 1 {
		t.Errorf("store metrics = %+v, want recorded appends", m.Store)
	}

	// The in-memory embedder path reports no store block.
	s2, ts2 := newTestServer(t, Config{})
	_ = s2
	var m2 MetricsSnapshot
	resp2, err := http.Get(ts2.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if err := json.NewDecoder(resp2.Body).Decode(&m2); err != nil {
		t.Fatal(err)
	}
	if m2.Store != nil {
		t.Errorf("in-memory server reports store metrics: %+v", m2.Store)
	}
}

// newHTTPServer serves an existing Server over httptest with cleanup.
func newHTTPServer(t *testing.T, s *Server) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
		if st := s.Store(); st != nil {
			_ = st.Close()
		}
	})
	return ts
}

// TestAccessLogLine pins the access-log format fields the satellite
// requires: status, duration, request id and client identity on one
// line per request.
func TestAccessLogLine(t *testing.T) {
	var buf syncBuffer
	_, ts := newTestServer(t, Config{Traffic: TrafficConfig{AccessLog: log.New(&buf, "", 0)}})
	resp, _, _ := doReq(t, "GET", ts.URL+"/v1/healthz", "", map[string]string{
		"X-Request-ID": "rid-42", "X-Client-ID": "tester",
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %d", resp.StatusCode)
	}
	line := buf.String()
	for _, want := range []string{"GET /v1/healthz 200", "rid=rid-42", "client=tester", "ms"} {
		if !strings.Contains(line, want) {
			t.Errorf("access log %q missing %q", line, want)
		}
	}
}

// syncBuffer is a mutex-guarded byte buffer for log capture.
type syncBuffer struct {
	mu  sync.Mutex
	buf strings.Builder
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}
