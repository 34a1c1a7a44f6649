package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"hputune/internal/server"
)

func TestRouterScatterRejectsBadDocs(t *testing.T) {
	_, _, rts, _ := newTestCluster(t, 2)
	cases := []struct {
		name string
		body string
	}{
		{"invalid JSON", `{`},
		{"unknown field", `{"campagin": {}}`},
		{"no kind", `{}`},
		{"two kinds", `{"campaign": {}, "fleet": {"preset": "paper", "seed": 1}}`},
		{"bad preset", `{"fleet": {"preset": "no-such-preset", "seed": 1}}`},
	}
	for _, tc := range cases {
		resp, raw := postDoc(t, rts.URL+"/v1/campaigns", tc.body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400: %s", tc.name, resp.StatusCode, raw)
		}
		var env struct {
			Error server.APIError `json:"error"`
		}
		if err := json.Unmarshal(raw, &env); err != nil || env.Error.Code == "" {
			t.Fatalf("%s: reply is not an error envelope: %s", tc.name, raw)
		}
	}
}

// faultyCluster builds a two-node cluster where n0 is a real in-memory
// node (DELETEs counted) and n1 is the scripted handler under test.
func faultyCluster(t *testing.T, faulty http.HandlerFunc) (*httptest.Server, *atomic.Uint64, *server.Server) {
	t.Helper()
	cl := New(Config{})
	good, err := server.New(server.Config{Node: "n0"})
	if err != nil {
		t.Fatal(err)
	}
	var deletes atomic.Uint64
	goodTS := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodDelete {
			deletes.Add(1)
		}
		good.Handler().ServeHTTP(w, r)
	}))
	t.Cleanup(goodTS.Close)
	badTS := httptest.NewServer(faulty)
	t.Cleanup(badTS.Close)
	if err := cl.AddNode("n0", goodTS.URL); err != nil {
		t.Fatal(err)
	}
	if err := cl.AddNode("n1", badTS.URL); err != nil {
		t.Fatal(err)
	}
	rt := NewRouter(cl, nil)
	rts := httptest.NewServer(rt.Handler())
	t.Cleanup(rts.Close)
	return rts, &deletes, good
}

// splitStartDoc builds a {"campaigns":[a,b]} doc whose first entry lands
// on n0 and whose second lands on n1, so the good node's start precedes
// the failing one and the rollback has something to undo.
func splitStartDoc(t *testing.T) string {
	t.Helper()
	one := func(name string) string {
		return fmt.Sprintf(`{"name": %q, "roundBudget": 40, "rounds": 2, "epsilon": 0.5, "seed": 5,
  "prior": {"kind": "linear", "k": 1, "b": 1},
  "groups": [{"name": "g", "tasks": 4, "reps": 2, "procRate": 2, "true": {"kind": "linear", "k": 1, "b": 1}}]}`, name)
	}
	probe := New(Config{})
	for _, n := range []string{"n0", "n1"} {
		if err := probe.AddNode(n, "http://unused"); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 256; i++ {
		for j := 0; j < 256; j++ {
			if i == j {
				continue
			}
			doc := fmt.Sprintf(`{"campaigns": [%s, %s]}`, one(fmt.Sprintf("rb%d", i)), one(fmt.Sprintf("rb%d", j)))
			subs, err := scatter([]byte(doc))
			if err != nil {
				t.Fatal(err)
			}
			if probe.Place(subs[0].key) == "n0" && probe.Place(subs[1].key) == "n1" {
				return doc
			}
		}
	}
	t.Fatal("could not construct a doc splitting across both nodes")
	return ""
}

func TestRouterStartRollsBackOnNodeError(t *testing.T) {
	doc := splitStartDoc(t)
	faultyBody := `{"error": {"code": "overloaded", "message": "node full"}}`
	rts, deletes, _ := faultyCluster(t, func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusServiceUnavailable)
		_, _ = w.Write([]byte(faultyBody))
	})

	resp, raw := postDoc(t, rts.URL+"/v1/campaigns", doc)
	// The failing node's envelope comes back verbatim...
	if resp.StatusCode != http.StatusServiceUnavailable || string(raw) != faultyBody {
		t.Fatalf("partial failure reply = %d %s, want the node's 503 envelope verbatim", resp.StatusCode, raw)
	}
	// ...and the campaign already started on the good node was canceled.
	if got := deletes.Load(); got != 1 {
		t.Fatalf("rollback issued %d DELETEs, want 1", got)
	}
}

func TestRouterStartRollsBackOnUnreachableNode(t *testing.T) {
	doc := splitStartDoc(t)
	cl := New(Config{})
	good, err := server.New(server.Config{Node: "n0"})
	if err != nil {
		t.Fatal(err)
	}
	var deletes atomic.Uint64
	goodTS := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodDelete {
			deletes.Add(1)
		}
		good.Handler().ServeHTTP(w, r)
	}))
	defer goodTS.Close()
	// n1's listener is already closed: the call itself errors instead of
	// answering, which is the "unreachable mid-scatter" branch.
	dead := httptest.NewServer(http.NotFoundHandler())
	dead.Close()
	if err := cl.AddNode("n0", goodTS.URL); err != nil {
		t.Fatal(err)
	}
	if err := cl.AddNode("n1", dead.URL); err != nil {
		t.Fatal(err)
	}
	rt := NewRouter(cl, nil)
	rts := httptest.NewServer(rt.Handler())
	defer rts.Close()

	resp, raw := postDoc(t, rts.URL+"/v1/campaigns", doc)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("unreachable node reply = %d: %s", resp.StatusCode, raw)
	}
	var env struct {
		Error server.APIError `json:"error"`
	}
	if err := json.Unmarshal(raw, &env); err != nil || env.Error.Code != server.CodeOverloaded {
		t.Fatalf("want an overloaded envelope, got: %s", raw)
	}
	if got := deletes.Load(); got != 1 {
		t.Fatalf("rollback issued %d DELETEs, want 1", got)
	}
}

func TestRouterStartRejectsMalformedNodeReply(t *testing.T) {
	doc := splitStartDoc(t)
	rts, deletes, _ := faultyCluster(t, func(w http.ResponseWriter, r *http.Request) {
		// A 202 that doesn't carry exactly one id breaks the scatter
		// invariant; the router must fail loudly and roll back.
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusAccepted)
		_, _ = w.Write([]byte(`{"ids": ["a", "b"]}`))
	})
	resp, raw := postDoc(t, rts.URL+"/v1/campaigns", doc)
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("malformed reply status = %d, want 500: %s", resp.StatusCode, raw)
	}
	if got := deletes.Load(); got != 1 {
		t.Fatalf("rollback issued %d DELETEs, want 1", got)
	}
}

func TestRouterRejectsOversizedBody(t *testing.T) {
	_, _, rts, _ := newTestCluster(t, 1)
	big := bytes.Repeat([]byte("x"), server.MaxBodyBytes+1)
	resp, err := http.Post(rts.URL+"/v1/solve", "application/json", bytes.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body status = %d, want 413", resp.StatusCode)
	}
}

func TestRouterRejectsOversizedNodeReply(t *testing.T) {
	huge := bytes.Repeat([]byte(" "), server.MaxBodyBytes+1)
	node := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write(huge)
	}))
	defer node.Close()
	cl := New(Config{})
	if err := cl.AddNode("n0", node.URL); err != nil {
		t.Fatal(err)
	}
	rts := httptest.NewServer(NewRouter(cl, nil).Handler())
	defer rts.Close()
	resp, raw := postDoc(t, rts.URL+"/v1/solve", routerSolveDoc)
	var env server.ErrorEnvelope
	if resp.StatusCode != http.StatusServiceUnavailable || json.Unmarshal(raw, &env) != nil || env.Error.Code != server.CodeOverloaded {
		t.Fatalf("over-cap node reply forwarded as %d (%d bytes), want the 503 envelope", resp.StatusCode, len(raw))
	}
}

func TestRouterStatsCounters(t *testing.T) {
	_, rt, rts, _ := newTestCluster(t, 1)
	if resp, raw := postDoc(t, rts.URL+"/v1/campaigns", routerCampaignDoc); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("start: %d %s", resp.StatusCode, raw)
	}
	rt.AddFailover()
	st := rt.Stats()
	if st.Scattered != 1 || st.Failovers != 1 || st.Proxied == 0 {
		t.Fatalf("stats = %+v, want scattered 1, failovers 1, proxied > 0", st)
	}
	if len(st.Nodes) != 1 {
		t.Fatalf("stats carries %d nodes, want 1", len(st.Nodes))
	}
}

func TestRouterEmptyClusterIs503(t *testing.T) {
	cl := New(Config{})
	rt := NewRouter(cl, nil)
	rts := httptest.NewServer(rt.Handler())
	defer rts.Close()
	for _, path := range []string{"/v1/solve", "/v1/ingest", "/v1/campaigns"} {
		resp, raw := postDoc(t, rts.URL+path, strings.TrimSpace(routerCampaignDoc))
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("%s on an empty cluster = %d, want 503: %s", path, resp.StatusCode, raw)
		}
	}
}
