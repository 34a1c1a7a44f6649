package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"reflect"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"hputune/internal/campaign"
	"hputune/internal/engine"
	"hputune/internal/htuning"
	"hputune/internal/inference"
	"hputune/internal/randx"
	"hputune/internal/server"
	"hputune/internal/spec"
	"hputune/internal/store"
	"hputune/internal/trace"
	"hputune/internal/workload"
)

// syncOff runs the stores and replicas without fsync (store.Options
// NoSync, the mode the cluster drills use). With fsync on, the shared
// disk's fsync latency swung ingest latency and background rounds per
// second by a quarter to a third between runs — the benchmark would gate
// the disk, not the code. Every WAL write, group commit, compaction and
// replication step still runs; store.fsync_probe_ms records the disk.
const syncOff = true

// maxInFlight is each node's admission pool (htuned -max-inflight):
// with the default bulk share it admits three concurrent solves, more
// than the load generator's two connections can have outstanding.
const maxInFlight = 4

// startEvery paces the background campaigns of the open-loop window.
// Each campaign is posted and then polled every pollEvery on the posting
// connection until terminal, so a pass of the fleet (see passes) is
// timed to within a poll and a round trip per campaign.
const (
	startEvery = time.Second
	pollEvery  = 250 * time.Microsecond
)

// flightLimit fails a background campaign that is not terminal in time.
const flightLimit = 120 * time.Second

// pool is the fixed set of explicit-model solve specs the readers draw
// from, with the reply each must produce.
type pool struct {
	bodies  [][]byte
	replies [][]byte
}

// newPool builds n specs from seed and computes every expected reply
// in process: spec.Parse, engine.SolveBatch on a fresh estimator, and
// the service's JSON encoding of server.SolveResponse. The returned
// estimator is warm for the whole pool.
func newPool(seed uint64, n int) (*pool, *htuning.Estimator, error) {
	rng := randx.New(seed ^ 0x9e3779b97f4a7c15)
	ks := []float64{0.5, 1, 2}
	bs := []float64{0.5, 1}
	procs := []float64{1, 2, 3}
	p := &pool{}
	for i := 0; i < n; i++ {
		var groups []string
		tasks := 0
		for g := 0; g < 1+rng.Intn(2); g++ {
			t, r := 4+rng.Intn(9), 2+rng.Intn(3)
			tasks += t * r
			groups = append(groups, fmt.Sprintf(`{"name":"g%d","tasks":%d,"reps":%d,"procRate":%g,"model":{"kind":"linear","k":%g,"b":%g}}`,
				g, t, r, procs[rng.Intn(len(procs))], ks[rng.Intn(len(ks))], bs[rng.Intn(len(bs))]))
		}
		budget := tasks * (2 + rng.Intn(3))
		body := fmt.Sprintf(`{"budget":%d,"groups":[%s]}`, budget, strings.Join(groups, ","))
		p.bodies = append(p.bodies, []byte(body))
	}
	est := htuning.NewEstimator()
	for _, body := range p.bodies {
		reply, err := solveInProcess(est, body)
		if err != nil {
			return nil, nil, fmt.Errorf("solve pool reference: %w", err)
		}
		p.replies = append(p.replies, reply)
	}
	return p, est, nil
}

// solveInProcess is the reference path of one /v1/solve request.
func solveInProcess(est *htuning.Estimator, body []byte) ([]byte, error) {
	problems, batch, err := spec.Parse(body, spec.BuildOpts{})
	if err != nil {
		return nil, err
	}
	results, err := engine.SolveBatch(est, problems, engine.Options{})
	if err != nil {
		return nil, err
	}
	return encodeSolve(batch, results)
}

// checkSolveReply compares a served solve reply with the in-process
// reference, byte for byte.
func checkSolveReply(want, got []byte) error {
	if !bytes.Equal(got, want) {
		return fmt.Errorf("solve reply %q differs from engine.SolveBatch's %q", got, want)
	}
	return nil
}

// encodeSolve renders a solve reply exactly as the service writes it.
func encodeSolve(batch bool, results []htuning.RepetitionResult) ([]byte, error) {
	resp := server.SolveResponse{Batch: batch, Results: make([]server.SolveResult, len(results))}
	for i, r := range results {
		resp.Results[i] = server.SolveResult{Prices: r.Prices, Objective: r.Objective, Spent: r.Spent}
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(resp); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// replayPool times the three stages of a solve request off the wire —
// spec parsing, engine.SolveBatch on a warm estimator, reply encoding —
// over every pool body, checking each reply. It returns the mean
// microseconds per request of each stage.
func replayPool(p *pool, est *htuning.Estimator, passes int, rep *report) (decode, handler, encode float64) {
	var dd, hd, ed time.Duration
	n := 0
	for pass := 0; pass < passes; pass++ {
		for i, body := range p.bodies {
			t0 := time.Now()
			problems, batch, err := spec.Parse(body, spec.BuildOpts{})
			t1 := time.Now()
			if err != nil {
				rep.failf("replay spec %d: %v", i, err)
				return 0, 0, 0
			}
			results, err := engine.SolveBatch(est, problems, engine.Options{})
			t2 := time.Now()
			if err != nil {
				rep.failf("replay spec %d: %v", i, err)
				return 0, 0, 0
			}
			reply, err := encodeSolve(batch, results)
			t3 := time.Now()
			if err == nil {
				err = checkSolveReply(p.replies[i], reply)
			}
			if err != nil {
				rep.failf("replay spec %d: %v", i, err)
			}
			dd += t1.Sub(t0)
			hd += t2.Sub(t1)
			ed += t3.Sub(t2)
			n++
		}
	}
	us := func(d time.Duration) float64 { return ratio(float64(d)/float64(time.Microsecond), float64(n)) }
	return us(dd), us(hd), us(ed)
}

// batch is one pre-encoded ingest request.
type batch struct {
	client  string
	body    []byte
	records int
	aggs    map[int]inference.PriceAggregate
}

// ingestBatches builds the distinct write bodies: workload.DyadicTrace
// batches for 8 clients over 4 price levels each, so any subset summed
// in any order folds to exactly the same aggregates.
func ingestBatches(seed uint64) ([]batch, error) {
	rng := randx.New(seed ^ 0xd1b54a32d192ed03)
	var out []batch
	for c := 0; c < 8; c++ {
		client := fmt.Sprintf("client-%d-%d", seed%1000, c)
		for v := 0; v < 4; v++ {
			lo := 1 + rng.Intn(5)
			prices := []int{2 * lo, 2*lo + 2, 2*lo + 4, 2*lo + 6}
			recs := workload.DyadicTrace(client, prices, 4)
			var buf bytes.Buffer
			if err := trace.WriteJSONL(&buf, recs); err != nil {
				return nil, err
			}
			aggs := make(map[int]inference.PriceAggregate)
			for _, r := range recs {
				a := aggs[r.Price]
				a.Add(1, r.OnHold())
				aggs[r.Price] = a
			}
			out = append(out, batch{client: client, body: buf.Bytes(), records: len(recs), aggs: aggs})
		}
	}
	return out, nil
}

// bgFleet is the background campaign load: the paper preset's campaigns
// as one-campaign documents ({"fleet": {"preset": "paper", "seed": S,
// "index": i}}): fig5c at the preset's default seed 0, for the reason
// coldFleet gives, and the other seven at each of size.paperSeeds seeds S
// drawn from the workload seed. A campaign's cost depends on its seed, so
// one seed's draw would move the closed-loop passes' rounds per second
// by about a sixth between workload seeds; several seeds average it out.
type bgFleet struct {
	docs [][]byte
	cfgs []campaign.Config
	ref  [][]byte // encoded campaign.Result per document
	// sim is the reference results' simulated latency: every flight must
	// reproduce its reference, so this is the served campaigns' figure
	// whatever number of flights each one gets.
	sim float64
}

func backgroundFleet(ctx context.Context, seed uint64, size scale) (*bgFleet, error) {
	f := &bgFleet{}
	preset, err := spec.ParseCampaigns([]byte(`{"fleet":{"preset":"paper"}}`), spec.BuildOpts{})
	if err != nil {
		return nil, err
	}
	add := func(s uint64, keep func(name string) bool) error {
		for i, cfg := range preset {
			if !keep(cfg.Name) {
				continue
			}
			doc := []byte(fmt.Sprintf(`{"fleet":{"preset":"paper","seed":%d,"index":%d}}`, s, i))
			cfgs, err := spec.ParseCampaigns(doc, spec.BuildOpts{})
			if err != nil {
				return err
			}
			f.docs = append(f.docs, doc)
			f.cfgs = append(f.cfgs, cfgs[0])
		}
		return nil
	}
	if err := add(0, func(name string) bool { return name == "fig5c" }); err != nil {
		return nil, err
	}
	seeds := randx.New(seed ^ 0xa0761d6478bd642f)
	for k := 0; k < size.paperSeeds; k++ {
		if err := add(seeds.Uint64(), func(name string) bool { return name != "fig5c" }); err != nil {
			return nil, err
		}
	}
	// The reference (and the untimed warm-up pass): the same campaigns in
	// process, on a fresh estimator.
	res, err := campaign.RunFleet(ctx, htuning.NewEstimator(), f.cfgs, workers)
	if err != nil {
		return nil, fmt.Errorf("reference paper fleet: %w", err)
	}
	for _, r := range res {
		raw, err := json.Marshal(r)
		if err != nil {
			return nil, err
		}
		f.ref = append(f.ref, raw)
	}
	f.sim = simLatency(res)
	return f, nil
}

// node is one in-process htuned: a WAL-backed store (default group
// commit), the server recovered over it, and its loopback listener.
type node struct {
	name, dir, url string
	st             *store.Store
	srv            *server.Server
	stop           context.CancelFunc
	done           chan error
}

func startNode(dir, name string) (*node, error) {
	st, err := store.Open(dir, store.Options{NoSync: syncOff})
	if err != nil {
		return nil, err
	}
	srv, err := server.Recover(server.Config{Node: name, MaxInFlight: maxInFlight}, st)
	if err != nil {
		st.Close()
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		st.Close()
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	n := &node{name: name, dir: dir, url: "http://" + ln.Addr().String(), st: st, srv: srv, stop: cancel, done: make(chan error, 1)}
	go func() { n.done <- srv.Serve(ctx, ln) }()
	return n, nil
}

// close drains the node (campaigns settle, in-flight requests finish)
// and closes its store.
func (n *node) close() error {
	n.stop()
	err := <-n.done
	if cerr := n.st.Close(); err == nil {
		err = cerr
	}
	return err
}

// newClient is one load-generator connection.
func newClient() *http.Client {
	return &http.Client{
		Timeout:   60 * time.Second,
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true},
	}
}

// call issues one request and returns the status and body.
func call(c *http.Client, method, url string, body []byte, header map[string]string) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	for k, v := range header {
		req.Header.Set(k, v)
	}
	resp, err := c.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	return resp.StatusCode, raw, err
}

// warmPool solves every pool spec once on a node, checking the replies.
func warmPool(c *http.Client, url string, p *pool) error {
	for i, body := range p.bodies {
		status, raw, err := call(c, http.MethodPost, url+"/v1/solve", body, nil)
		if err != nil {
			return err
		}
		if status != http.StatusOK {
			return fmt.Errorf("warm-up solve %d: status %d", i, status)
		}
		if err := checkSolveReply(p.replies[i], raw); err != nil {
			return fmt.Errorf("warm-up solve %d: %w", i, err)
		}
	}
	return nil
}

type opKind int

const (
	opSolve opKind = iota
	opIngest
	opStart // fly the next background campaign
)

// op is one scheduled request of the open-loop generator.
type op struct {
	kind   opKind
	due    time.Duration // offset from the window start
	item   int           // pool spec (solve) or batch (ingest)
	direct bool          // bypass the router
}

// writeShare of the open-loop requests are ingests, the rest solves;
// directShare of them bypass the router.
const (
	writeShare  = 1.0 / 3
	directShare = 0.25
)

// schedule draws a window's requests from seed: rate requests per
// second, writeShare of them ingests, directShare of them sent straight
// to a node, plus a background start every startEvery.
func schedule(seed uint64, window time.Duration, rate float64, pool, batches int) []op {
	rng := randx.New(seed)
	n := int(rate * window.Seconds())
	var ops []op
	for t := time.Duration(0); t < window; t += startEvery {
		ops = append(ops, op{kind: opStart, due: t})
	}
	for k := 0; k < n; k++ {
		o := op{kind: opSolve, due: time.Duration(float64(k) / rate * float64(time.Second))}
		if rng.Float64() < writeShare {
			o.kind, o.item = opIngest, rng.Intn(batches)
		} else {
			o.item = rng.Intn(pool)
		}
		o.direct = rng.Float64() < directShare
		ops = append(ops, o)
	}
	sort.SliceStable(ops, func(i, j int) bool { return ops[i].due < ops[j].due })
	return ops
}

// sample is the outcome of one op, timed from when it was due.
type sample struct {
	late, lat, svc time.Duration // due→sent, due→done, sent→done
	ok             bool
}

// directURL is the node an op bypassing the router goes to: the ring
// owner of an ingest's client, any node for a stateless solve.
func (c *clusterRig) directURL(o op, client string, i int) string {
	if o.kind == opIngest {
		if u, ok := c.cl.NodeURL(c.cl.Place("ingest:" + client)); ok {
			return u
		}
	}
	return c.nodes[i%len(c.nodes)].url
}

// window is one open-loop run with its background campaigns.
type window struct {
	ops     []op
	samples []sample

	// mu guards the fields below.
	mu       sync.Mutex
	ingested ingestLog
	flights  []flight // the terminal ones
	posts    int      // background campaigns posted so far
}

// flight is one background campaign, posted and polled until terminal.
type flight struct {
	index  int // into the background fleet
	result campaign.Result
}

// ingestLog is what the acknowledged ingests carried, per client: the
// routing key of every cluster partition.
type ingestLog struct {
	aggs    map[string]map[int]inference.PriceAggregate
	records map[string]int
}

func newIngestLog() ingestLog {
	return ingestLog{aggs: make(map[string]map[int]inference.PriceAggregate), records: make(map[string]int)}
}

func (l ingestLog) add(client string, aggs map[int]inference.PriceAggregate, records int) {
	l.aggs[client] = inference.MergeAggregates(l.aggs[client], aggs)
	l.records[client] += records
}

func (l ingestLog) merge(o ingestLog) {
	for c, a := range o.aggs {
		l.add(c, a, o.records[c])
	}
}

// total folds the clients keep selects (nil: all of them).
func (l ingestLog) total(keep func(client string) bool) (map[int]inference.PriceAggregate, int) {
	aggs := make(map[int]inference.PriceAggregate)
	records := 0
	for c, a := range l.aggs {
		if keep == nil || keep(c) {
			aggs = inference.MergeAggregates(aggs, a)
			records += l.records[c]
		}
	}
	return aggs, records
}

// load drives one window: the ops on the benchmark's client
// connections. Acknowledged ingests fold into w.ingested, terminal
// background campaigns into w.flights.
func (c *clusterRig) load(ctx context.Context, w *window, clients []*http.Client, in serveInputs, rep *report) {
	w.samples = make([]sample, len(w.ops))
	w.ingested = newIngestLog()
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for _, hc := range clients {
		wg.Add(1)
		go func(hc *http.Client) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(w.ops) || ctx.Err() != nil {
					return
				}
				o := w.ops[i]
				due := start.Add(o.due)
				if d := time.Until(due); d > 0 {
					time.Sleep(d)
				}
				sent := time.Now()
				ok := c.do(hc, w, o, i, in, rep)
				done := time.Now()
				w.samples[i] = sample{late: sent.Sub(due), lat: done.Sub(due), svc: done.Sub(sent), ok: ok}
			}
		}(hc)
	}
	wg.Wait()
	failed := 0
	for _, s := range w.samples {
		if !s.ok {
			failed++
		}
	}
	rep.ops(len(w.samples), failed)
}

// do sends one op and reports whether it succeeded.
func (c *clusterRig) do(hc *http.Client, w *window, o op, i int, in serveInputs, rep *report) bool {
	switch o.kind {
	case opSolve:
		url := c.url
		if o.direct {
			url = c.directURL(o, "", i)
		}
		status, raw, err := call(hc, http.MethodPost, url+"/v1/solve", in.pool.bodies[o.item], nil)
		if err != nil || status != http.StatusOK {
			return false
		}
		if err := checkSolveReply(in.pool.replies[o.item], raw); err != nil {
			rep.failf("spec %d (direct=%v): %v", o.item, o.direct, err)
			return false
		}
		return true
	case opIngest:
		b := in.batches[o.item]
		url := c.url
		if o.direct {
			url = c.directURL(o, b.client, i)
		}
		status, raw, err := call(hc, http.MethodPost, url+"/v1/ingest", b.body, map[string]string{server.DefaultClientHeader: b.client})
		if err != nil || status != http.StatusOK {
			return false
		}
		var resp server.IngestResponse
		if err := json.Unmarshal(raw, &resp); err != nil || resp.Records != b.records {
			rep.failf("ingest reply %q does not acknowledge %d records", raw, b.records)
			return false
		}
		w.mu.Lock()
		w.ingested.add(b.client, b.aggs, b.records)
		w.mu.Unlock()
		return true
	default:
		return c.fly(hc, w, in.fleet)
	}
}

// fly posts the background fleet's next campaign and polls it every
// pollEvery on the same connection until it is terminal.
func (c *clusterRig) fly(hc *http.Client, w *window, fleet *bgFleet) bool {
	w.mu.Lock()
	f := flight{index: w.posts % len(fleet.docs)}
	w.posts++
	w.mu.Unlock()
	posted := time.Now()
	status, raw, err := call(hc, http.MethodPost, c.url+"/v1/campaigns", fleet.docs[f.index], nil)
	if err != nil || status != http.StatusAccepted {
		return false
	}
	var started server.CampaignStartResponse
	if err := json.Unmarshal(raw, &started); err != nil || len(started.IDs) != 1 {
		return false
	}
	for {
		status, raw, err := call(hc, http.MethodGet, c.url+"/v1/campaigns/"+started.IDs[0], nil, nil)
		if err != nil || status != http.StatusOK {
			return false
		}
		var got server.CampaignGetResponse
		if err := json.Unmarshal(raw, &got); err != nil {
			return false
		}
		if got.Status.Terminal() {
			f.result = got.Result
			break
		}
		if time.Since(posted) > flightLimit {
			return false
		}
		time.Sleep(pollEvery)
	}
	w.mu.Lock()
	w.flights = append(w.flights, f)
	w.mu.Unlock()
	return true
}

// checkFlights compares every background campaign with the reference.
func (w *window) checkFlights(fleet *bgFleet, rep *report) {
	for k, f := range w.flights {
		got, _ := json.Marshal(f.result)
		if !bytes.Equal(got, fleet.ref[f.index]) {
			rep.failf("background campaign %d (%s) differs from the in-process fleet", k, f.result.Name)
		}
	}
}

// latencies returns the milliseconds (due→done, or sent→done when svc
// is set) of the successful ops of one kind whose direct flag keep
// accepts.
func (w *window) latencies(kind opKind, keep func(direct bool) bool, svc bool) []float64 {
	var out []float64
	for i, s := range w.samples {
		if w.ops[i].kind != kind || !s.ok || !keep(w.ops[i].direct) {
			continue
		}
		if svc {
			out = append(out, durMS(s.svc))
		} else {
			out = append(out, durMS(s.lat))
		}
	}
	return out
}

func allOps(bool) bool { return true }

// slice is the span over which a latency median is taken; the reported
// figure is the median of the slices' medians, so a stall shorter than
// half the window (a WAL compaction, a burst of interference on a shared
// machine) moves it by little more than one slice.
const slice = time.Second

// slicedMedian returns the median over slices of the median due→done
// latency of the successful ops of one kind.
func (w *window) slicedMedian(kind opKind) float64 {
	bySlice := make(map[time.Duration][]float64)
	for i, s := range w.samples {
		if o := w.ops[i]; o.kind == kind && s.ok {
			k := o.due / slice
			bySlice[k] = append(bySlice[k], durMS(s.lat))
		}
	}
	var medians []float64
	for _, lat := range bySlice {
		medians = append(medians, median(lat))
	}
	return median(medians)
}

// checkFitInfo compares a published fit with inference.FitAggregates
// over aggs: slope, intercept and R² bit for bit, and the price count.
func checkFitInfo(got *server.FitInfo, aggs map[int]inference.PriceAggregate) error {
	want, err := inference.FitAggregates(aggs)
	if err != nil {
		return fmt.Errorf("reference fit: %w", err)
	}
	if got == nil {
		return fmt.Errorf("no fit published")
	}
	if math.Float64bits(got.Slope) != math.Float64bits(want.Fit.Slope) ||
		math.Float64bits(got.Intercept) != math.Float64bits(want.Fit.Intercept) ||
		math.Float64bits(got.R2) != math.Float64bits(want.Fit.R2) ||
		got.Prices != len(want.Prices) {
		return fmt.Errorf("fit %+v differs from the reference: slope %v intercept %v r2 %v over %d prices",
			*got, want.Fit.Slope, want.Fit.Intercept, want.Fit.R2, len(want.Prices))
	}
	return nil
}

// checkFit compares a node's published fit (GET /v1/stats) with the
// reference over every ingested record.
func checkFit(c *http.Client, url string, aggs map[int]inference.PriceAggregate, rep *report) {
	status, raw, err := call(c, http.MethodGet, url+"/v1/stats", nil, nil)
	if err != nil || status != http.StatusOK {
		rep.failf("stats %s: status %d, %v", url, status, err)
		return
	}
	var st server.StatsResponse
	if err := json.Unmarshal(raw, &st); err != nil {
		rep.failf("stats %s: %v", url, err)
		return
	}
	if err := checkFitInfo(st.Fit, aggs); err != nil {
		rep.failf("%s: %v", url, err)
	}
}

// checkStateDir inspects a closed node's state directory: it must be
// clean and replay to exactly the aggregates and records ingested.
func checkStateDir(dir string, aggs map[int]inference.PriceAggregate, records int, rep *report) {
	r, err := store.Inspect(dir)
	if err != nil {
		rep.failf("inspect %s: %v", dir, err)
		return
	}
	if !r.Clean() || r.State == nil {
		rep.failf("state dir %s is not clean: snapshot %v, corrupt %v, apply %v", dir, r.SnapshotErr, r.Corrupt, r.ApplyErr)
		return
	}
	if int(r.State.Records) != records || !reflect.DeepEqual(r.State.Aggs, aggs) {
		rep.failf("state dir %s replays %d records over %d prices, ingested %d over %d",
			dir, r.State.Records, len(r.State.Aggs), records, len(aggs))
	}
}

// scrape reads a /v1/metrics document into v.
func scrape(c *http.Client, url string, v any) error {
	status, raw, err := call(c, http.MethodGet, url+"/v1/metrics", nil, nil)
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("metrics %s: status %d", url, status)
	}
	return json.Unmarshal(raw, v)
}

// serverDelta is the per-layer change of the summed node documents
// over a traced window.
type serverDelta struct {
	solveN, ingestN       uint64
	solveMS, ingestMS     float64
	appends               uint64
	walBytes              int64
	hits, misses          uint64
	bulkRej, prioRej, shd uint64
}

func sumMetrics(docs []server.MetricsSnapshot) serverDelta {
	var d serverDelta
	for _, m := range docs {
		s, in := m.Endpoints["POST /v1/solve"], m.Endpoints["POST /v1/ingest"]
		d.solveN += s.Count
		d.solveMS += s.SumMS
		d.ingestN += in.Count
		d.ingestMS += in.SumMS
		if m.Store != nil {
			d.appends += m.Store.Appends
			d.walBytes += m.Store.WALBytes
		}
		d.hits += m.Cache.Hits
		d.misses += m.Cache.Misses
		d.bulkRej += m.Admission.BulkRejected
		d.prioRej += m.Admission.PriorityRejected
		d.shd += m.Admission.Shed
	}
	return d
}

// perLayer reports the serving layers' split of a traced window from
// the metrics documents before and after it and the client samples.
func (w *window) perLayer(before, after serverDelta, rep *report) {
	solveN := float64(after.solveN - before.solveN)
	ingestN := float64(after.ingestN - before.ingestN)
	serverSolve := ratio(after.solveMS-before.solveMS, solveN)
	rep.set("server.solve_ms", serverSolve)
	rep.set("server.ingest_ms", ratio(after.ingestMS-before.ingestMS, ingestN))
	rep.set("server.transport_ms", mean(w.latencies(opSolve, func(d bool) bool { return !d }, true))-serverSolve)
	rep.set("store.appends", float64(after.appends-before.appends))
	rep.set("store.wal_bytes", float64(after.walBytes))
	hits, misses := after.hits-before.hits, after.misses-before.misses
	rep.set("htuning.cache_hits", float64(hits))
	rep.set("htuning.cache_misses", float64(misses))
	rep.set("htuning.hit_ratio", ratio(float64(hits), float64(hits+misses)))
	rep.set("traffic.bulk_rejected", float64(after.bulkRej-before.bulkRej))
	rep.set("traffic.priority_rejected", float64(after.prioRej-before.prioRej))
	rep.set("traffic.shed", float64(after.shd-before.shd))
	var late []float64
	failed := 0
	for _, s := range w.samples {
		if !s.ok {
			failed++
		}
		late = append(late, durMS(s.late))
	}
	rep.set("loadgen.late_p99_ms", quantile(late, 0.99))
	rep.set("loadgen.solve_p99_ms", quantile(w.latencies(opSolve, allOps, false), 0.99))
	rep.set("loadgen.ingest_p99_ms", quantile(w.latencies(opIngest, allOps, false), 0.99))
	rep.set("loadgen.failed_share", ratio(float64(failed), float64(len(w.samples))))
}

func mean(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return ratio(s, float64(len(xs)))
}

// serveInputs are the cluster workload's generated inputs.
type serveInputs struct {
	pool    *pool
	est     *htuning.Estimator // warm for the pool (replay)
	batches []batch
	fleet   *bgFleet
}

func newServeInputs(ctx context.Context, opts options) (serveInputs, error) {
	var in serveInputs
	var err error
	if in.pool, in.est, err = newPool(opts.seed, opts.size.pool); err != nil {
		return in, err
	}
	if in.batches, err = ingestBatches(opts.seed); err != nil {
		return in, err
	}
	in.fleet, err = backgroundFleet(ctx, opts.seed, opts.size)
	return in, err
}
