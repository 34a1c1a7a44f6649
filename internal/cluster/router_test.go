package cluster

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"hputune/internal/server"
)

// testNode is one in-memory htuned behind an httptest listener.
type testNode struct {
	name string
	srv  *server.Server
	ts   *httptest.Server
}

// newTestCluster spins up n in-memory nodes and a router over them.
func newTestCluster(t *testing.T, n int) (*Cluster, *Router, *httptest.Server, []testNode) {
	t.Helper()
	cl := New(Config{})
	nodes := make([]testNode, n)
	for i := range nodes {
		name := fmt.Sprintf("n%d", i)
		s, err := server.New(server.Config{Node: name})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(s.Handler())
		t.Cleanup(ts.Close)
		nodes[i] = testNode{name: name, srv: s, ts: ts}
		if err := cl.AddNode(name, ts.URL); err != nil {
			t.Fatal(err)
		}
	}
	rt := NewRouter(cl, nil)
	rts := httptest.NewServer(rt.Handler())
	t.Cleanup(rts.Close)
	return cl, rt, rts, nodes
}

func postDoc(t *testing.T, url, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, raw
}

const routerSolveDoc = `{"budget": 50, "groups": [
  {"name": "g", "tasks": 5, "reps": 2, "procRate": 2.0,
   "model": {"kind": "linear", "k": 1, "b": 1}}]}`

const routerCampaignDoc = `{"campaign": {"name": "rc", "roundBudget": 40, "rounds": 2,
  "epsilon": 0.5, "seed": 5,
  "prior": {"kind": "linear", "k": 1, "b": 1},
  "groups": [{"name": "g", "tasks": 4, "reps": 2, "procRate": 2, "true": {"kind": "linear", "k": 1, "b": 1}}]}}`

func TestRouterRoundRobinSpreadsSolves(t *testing.T) {
	_, _, rts, nodes := newTestCluster(t, 3)
	for i := 0; i < 9; i++ {
		resp, raw := postDoc(t, rts.URL+"/v1/solve", routerSolveDoc)
		if resp.StatusCode != 200 {
			t.Fatalf("solve %d: status %d: %s", i, resp.StatusCode, raw)
		}
	}
	for _, n := range nodes {
		if got := n.srv.Metrics().Serve.Solves; got != 3 {
			t.Fatalf("node %s served %d solves, want 3", n.name, got)
		}
	}
}

func TestRouterScatterAndFetchCampaigns(t *testing.T) {
	cl, _, rts, nodes := newTestCluster(t, 3)
	resp, raw := postDoc(t, rts.URL+"/v1/campaigns", `{"fleet": {"preset": "paper", "seed": 11}}`)
	if resp.StatusCode != 202 {
		t.Fatalf("start fleet: status %d: %s", resp.StatusCode, raw)
	}
	var started server.CampaignStartResponse
	if err := json.Unmarshal(raw, &started); err != nil {
		t.Fatal(err)
	}
	if len(started.IDs) < 8 {
		t.Fatalf("fleet started %d campaigns", len(started.IDs))
	}
	owners := make(map[string]bool)
	for _, id := range started.IDs {
		node, _, ok := splitID(id)
		if !ok {
			t.Fatalf("id %q has no node prefix", id)
		}
		if _, known := cl.NodeURL(node); !known {
			t.Fatalf("id %q names unknown node", id)
		}
		owners[node] = true
		// Every id must resolve through the router and carry the
		// cluster-wide id back.
		resp, err := http.Get(rts.URL + "/v1/campaigns/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var got server.CampaignGetResponse
		if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != 200 || got.ID != id {
			t.Fatalf("get %s: status %d id %q", id, resp.StatusCode, got.ID)
		}
	}
	if len(owners) < 2 {
		t.Fatalf("8-campaign fleet landed on %d node(s); the ring should spread it", len(owners))
	}
	// A name with HTML-special characters survives the router's
	// re-encoding byte for byte: the routed reply is the owner's own
	// reply with the cluster-wide id.
	const name = "a<b&c"
	ids := startClusterFleet(t, rts.URL, strings.Replace(routerCampaignDoc, `"rc"`, `"`+name+`"`, 1))
	waitAllTerminal(t, rts.URL, ids)
	owner, rest, _ := splitID(ids[0])
	var ownerURL string
	for _, n := range nodes {
		if n.name == owner {
			ownerURL = n.ts.URL
		}
	}
	_, routed := getRaw(t, rts.URL+"/v1/campaigns/"+ids[0])
	_, direct := getRaw(t, ownerURL+"/v1/campaigns/"+rest)
	want := strings.Replace(string(direct), `"id":"`+rest+`"`, `"id":"`+ids[0]+`"`, 1)
	if string(routed) != want || !strings.Contains(want, `"name":"`+name+`"`) {
		t.Fatalf("routed campaign reply differs from the node's:\nrouted %s\nnode   %s", routed, direct)
	}

	// The cluster-wide list carries every id, and the name unescaped.
	_, listRaw := getRaw(t, rts.URL+"/v1/campaigns")
	var list server.CampaignListResponse
	if err := json.Unmarshal(listRaw, &list); err != nil {
		t.Fatal(err)
	}
	listed := make(map[string]bool)
	for _, sum := range list.Campaigns {
		listed[sum.ID] = true
	}
	for _, id := range append(started.IDs, ids[0]) {
		if !listed[id] {
			t.Fatalf("id %s missing from cluster list %v", id, list.Campaigns)
		}
	}
	if !strings.Contains(string(listRaw), `"name":"`+name+`"`) {
		t.Fatalf("cluster list escapes the campaign name: %s", listRaw)
	}
}

// getRaw fetches url and returns the status and body.
func getRaw(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, raw
}

func TestRouterScatterIsDeterministic(t *testing.T) {
	cl, _, rts, _ := newTestCluster(t, 3)
	resp, raw := postDoc(t, rts.URL+"/v1/campaigns", routerCampaignDoc)
	if resp.StatusCode != 202 {
		t.Fatalf("start: %d: %s", resp.StatusCode, raw)
	}
	var started server.CampaignStartResponse
	if err := json.Unmarshal(raw, &started); err != nil {
		t.Fatal(err)
	}
	node, _, _ := splitID(started.IDs[0])
	// The same document must always place on the same node.
	var doc startDoc
	if err := json.Unmarshal([]byte(routerCampaignDoc), &doc); err != nil {
		t.Fatal(err)
	}
	subs, err := scatter([]byte(routerCampaignDoc))
	if err != nil || len(subs) != 1 {
		t.Fatalf("scatter: %v (%d subs)", err, len(subs))
	}
	if got := cl.Place(subs[0].key); got != node {
		t.Fatalf("placement %s, started on %s", got, node)
	}
}

func TestRouterIngestPartitionsByClient(t *testing.T) {
	_, _, rts, nodes := newTestCluster(t, 3)
	ingest := `{"TaskID": "t1", "Rep": 1, "Price": 1, "PostedAt": 0, "Accepted": 0.5, "Done": 1, "WorkerID": 1, "Correct": true}`
	// The same client always lands on the same node; across many clients
	// more than one node sees traffic.
	for round := 0; round < 3; round++ {
		for c := 0; c < 12; c++ {
			req, err := http.NewRequest(http.MethodPost, rts.URL+"/v1/ingest", strings.NewReader(ingest))
			if err != nil {
				t.Fatal(err)
			}
			req.Header.Set("Content-Type", "application/json")
			req.Header.Set("X-Client-ID", fmt.Sprintf("client%d", c))
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != 200 {
				t.Fatalf("ingest: status %d", resp.StatusCode)
			}
		}
	}
	touched := 0
	total := uint64(0)
	counts := make([]uint64, len(nodes))
	for i, n := range nodes {
		counts[i] = n.srv.Metrics().Serve.Ingests
		total += counts[i]
		if counts[i] > 0 {
			touched++
		}
	}
	if total != 36 {
		t.Fatalf("ingests %v, want 36 total", counts)
	}
	for _, c := range counts {
		// Each client's 3 batches stick to one node, so every node's
		// count is a multiple of 3.
		if c%3 != 0 {
			t.Fatalf("ingest counts %v: a client's stream split across nodes", counts)
		}
	}
	if touched < 2 {
		t.Fatalf("all 12 clients landed on one node")
	}
}

func TestRouterEnvelopeParity(t *testing.T) {
	_, _, rts, _ := newTestCluster(t, 2)
	cases := []struct {
		method, path, body string
		status             int
		code               string
	}{
		{"POST", "/v1/campaigns", `{"campaign": {`, 400, server.CodeBadSpec},
		{"POST", "/v1/campaigns", `{"nonsense": 1}`, 400, server.CodeBadSpec},
		{"GET", "/v1/campaigns/n0-c99", "", 404, server.CodeNotFound},
		{"GET", "/v1/campaigns/nowhere-c1", "", 404, server.CodeNotFound},
		{"GET", "/v1/campaigns/noprefix", "", 404, server.CodeNotFound},
		{"GET", "/v1/unknown", "", 404, server.CodeNotFound},
		{"DELETE", "/v1/solve", "", 405, server.CodeMethodNotAllowed},
		{"GET", "/v1/campaigns/nowhere-a%3Cb", "", 404, server.CodeNotFound},
	}
	for _, tc := range cases {
		var rd io.Reader
		if tc.body != "" {
			rd = strings.NewReader(tc.body)
		}
		req, err := http.NewRequest(tc.method, rts.URL+tc.path, rd)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != tc.status {
			t.Fatalf("%s %s: status %d, want %d: %s", tc.method, tc.path, resp.StatusCode, tc.status, raw)
		}
		var env server.ErrorEnvelope
		if err := json.Unmarshal(raw, &env); err != nil || env.Error.Code != tc.code {
			t.Fatalf("%s %s: envelope %s (err %v), want code %s", tc.method, tc.path, raw, err, tc.code)
		}
	}
	// A router-written message carries the client's id byte for byte,
	// exactly as a node writes its own messages.
	_, raw := getRaw(t, rts.URL+"/v1/campaigns/nowhere-a%3Cb")
	want := `{"error":{"code":"not_found","message":"unknown node \"nowhere\" in campaign id \"nowhere-a<b\""}}` + "\n"
	if string(raw) != want {
		t.Fatalf("router envelope bytes\n got %s\nwant %s", raw, want)
	}
}

func TestRouterMintsAndForwardsRequestID(t *testing.T) {
	s, err := server.New(server.Config{Node: "n0"})
	if err != nil {
		t.Fatal(err)
	}
	seen := make(chan string, 1)
	node := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		seen <- r.Header.Get(server.RequestIDHeader)
		s.Handler().ServeHTTP(w, r)
	}))
	defer node.Close()
	cl := New(Config{})
	if err := cl.AddNode("n0", node.URL); err != nil {
		t.Fatal(err)
	}
	rts := httptest.NewServer(NewRouter(cl, nil).Handler())
	defer rts.Close()

	resp, raw := postDoc(t, rts.URL+"/v1/solve", routerSolveDoc)
	if resp.StatusCode != 200 {
		t.Fatalf("solve: status %d: %s", resp.StatusCode, raw)
	}
	rid := resp.Header.Get(server.RequestIDHeader)
	if rid == "" {
		t.Fatal("routed reply carries no request id")
	}
	if got := <-seen; got != rid {
		t.Fatalf("node saw request id %q, router replied %q", got, rid)
	}
}

func TestRouterFanoutDocuments(t *testing.T) {
	_, _, rts, _ := newTestCluster(t, 2)
	for _, path := range []string{"/v1/stats", "/v1/metrics"} {
		resp, err := http.Get(rts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		var doc struct {
			Router RouterStats                `json:"router"`
			Nodes  map[string]json.RawMessage `json:"nodes"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		resp.Body.Close()
		if len(doc.Nodes) != 2 || doc.Nodes["n0"] == nil || doc.Nodes["n1"] == nil {
			t.Fatalf("%s: nodes %v", path, doc.Nodes)
		}
		if len(doc.Router.Nodes) != 2 {
			t.Fatalf("%s: router stats %+v", path, doc.Router)
		}
	}
}

func TestRouterUnreachableNodeIs503(t *testing.T) {
	cl := New(Config{})
	if err := cl.AddNode("ghost", "http://127.0.0.1:1"); err != nil {
		t.Fatal(err)
	}
	rt := NewRouter(cl, nil)
	rts := httptest.NewServer(rt.Handler())
	t.Cleanup(rts.Close)
	resp, raw := postDoc(t, rts.URL+"/v1/solve", routerSolveDoc)
	if resp.StatusCode != 503 {
		t.Fatalf("status %d: %s", resp.StatusCode, raw)
	}
	var env server.ErrorEnvelope
	if err := json.Unmarshal(raw, &env); err != nil || env.Error.Code != server.CodeOverloaded || env.Error.RetryAfterMS <= 0 {
		t.Fatalf("envelope %s (err %v)", raw, err)
	}
}

func TestClusterRejectsBadNodeNames(t *testing.T) {
	cl := New(Config{})
	for _, bad := range []string{"", "a-b", "a b", "ä"} {
		if err := cl.AddNode(bad, "http://x"); err == nil {
			t.Fatalf("name %q accepted", bad)
		}
	}
	if err := cl.AddNode("ok_Node3", "http://x"); err != nil {
		t.Fatal(err)
	}
}
