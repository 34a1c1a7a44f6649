package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"path/filepath"
	"sync"
	"time"

	"hputune/internal/cluster"
	"hputune/internal/server"
)

// clusterNodes is the cluster-routed workload's node count.
const clusterNodes = 3

// Follower poll and fit-exchange intervals: htrouter's -poll and -merge
// defaults.
const (
	followerPoll  = 500 * time.Millisecond
	mergeInterval = 2 * time.Second
)

// clusterRig is an in-process cluster: WAL-backed nodes, one WAL-shipping
// follower per node, the fit-exchange merger, and the router on its own
// loopback listener.
type clusterRig struct {
	nodes  []*node
	fols   []*cluster.Follower
	cl     *cluster.Cluster
	mg     *cluster.Merger
	client *http.Client // the router's and merger's node client
	url    string
	hs     *http.Server
	served chan error

	stopLoops context.CancelFunc
	loops     sync.WaitGroup
}

func startCluster(dir string) (*clusterRig, error) {
	c := &clusterRig{cl: cluster.New(cluster.Config{}), client: &http.Client{Timeout: 30 * time.Second}}
	for i := 0; i < clusterNodes; i++ {
		name := fmt.Sprintf("n%d", i)
		n, err := startNode(filepath.Join(dir, name), name)
		if err != nil {
			c.close()
			return nil, err
		}
		c.nodes = append(c.nodes, n)
		if err := c.cl.AddNode(name, n.url); err != nil {
			c.close()
			return nil, err
		}
		c.fols = append(c.fols, cluster.NewFollower(name, filepath.Join(dir, "replica-"+name),
			&cluster.HTTPFetch{Base: n.url, Client: c.client}, cluster.FollowerOptions{NoSync: syncOff}))
	}
	c.mg = cluster.NewMerger(c.cl, c.client, nil)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		c.close()
		return nil, err
	}
	c.url = "http://" + ln.Addr().String()
	c.hs = &http.Server{Handler: cluster.NewRouter(c.cl, c.client).Handler(), ReadHeaderTimeout: 10 * time.Second}
	c.served = make(chan error, 1)
	go func() { c.served <- c.hs.Serve(ln) }()
	ctx, cancel := context.WithCancel(context.Background())
	c.stopLoops = cancel
	for _, f := range c.fols {
		c.loops.Add(1)
		go func(f *cluster.Follower) {
			defer c.loops.Done()
			f.Run(ctx, followerPoll)
		}(f)
	}
	c.loops.Add(1)
	go func() {
		defer c.loops.Done()
		c.mg.Run(ctx, mergeInterval)
	}()
	return c, nil
}

// halt stops the follower and merger loops and waits for them.
func (c *clusterRig) halt() {
	if c.stopLoops != nil {
		c.stopLoops()
		c.loops.Wait()
	}
}

// close stops everything the rig started: loops, router, nodes.
func (c *clusterRig) close() error {
	c.halt()
	var errs []error
	if c.hs != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		errs = append(errs, c.hs.Shutdown(ctx))
		cancel()
		if err := <-c.served; !errors.Is(err, http.ErrServerClosed) {
			errs = append(errs, err)
		}
	}
	for _, n := range c.nodes {
		errs = append(errs, n.close())
	}
	c.client.CloseIdleConnections()
	return errors.Join(errs...)
}

// replicaLag sums, over nodes, the node's newest WAL sequence minus its
// follower's durable cursor.
func (c *clusterRig) replicaLag() float64 {
	lag := 0.0
	for i, n := range c.nodes {
		lag += float64(n.st.Metrics().LastSeq) - float64(c.fols[i].Stats().LastSeq)
	}
	return lag
}

// routerDoc is the router's /v1/metrics fan-out document.
type routerDoc struct {
	Router cluster.RouterStats               `json:"router"`
	Nodes  map[string]server.MetricsSnapshot `json:"nodes"`
}

func runClusterRouted(ctx context.Context, opts options, rep *report) error {
	in, err := newServeInputs(ctx, opts)
	if err != nil {
		return err
	}
	warm := newClient()
	defer warm.CloseIdleConnections()
	c, setup, err := timedSetups(opts.size.setups, func(i int) (*clusterRig, error) {
		c, err := startCluster(fmt.Sprintf("%s/cluster-%d", opts.dir, i))
		if err != nil {
			return nil, err
		}
		for _, n := range c.nodes {
			if err := warmPool(warm, n.url, in.pool); err != nil {
				c.close()
				return nil, err
			}
		}
		return c, nil
	}, func(c *clusterRig) { c.close() })
	if err != nil {
		return err
	}
	rep.set("setup_s", setup)
	ingested, err := c.drive(ctx, opts, rep, in)
	if err != nil {
		c.close()
		return err
	}

	// Converge: one final fit exchange over the quiesced cluster, then
	// every node must publish the single-process fit, and every replica
	// must have caught up with its node.
	c.halt()
	if err := c.mg.Tick(ctx); err != nil {
		rep.failf("final fit exchange: %v", err)
	}
	aggs, _ := ingested.total(nil)
	for _, n := range c.nodes {
		checkFit(warm, n.url, aggs, rep)
	}
	for i, f := range c.fols {
		if err := f.Poll(ctx); err != nil {
			rep.failf("final replica poll of %s: %v", c.nodes[i].name, err)
		}
	}
	if lag := c.replicaLag(); lag != 0 {
		rep.failf("replicas trail their nodes by %v records after the final poll", lag)
	}
	if err := c.close(); err != nil {
		return fmt.Errorf("close cluster: %w", err)
	}
	// Each node's state dir replays exactly the partition the ring owns.
	for _, n := range c.nodes {
		owned, records := ingested.total(func(client string) bool {
			return c.cl.Place("ingest:"+client) == n.name
		})
		checkStateDir(n.dir, owned, records, rep)
	}
	return nil
}

// loadShare of the measured time is the open-loop window; the rest times
// closed-loop passes of the background fleet.
const loadShare = 2.0 / 3

// drive runs the load on the cluster: an untimed pass of the background
// fleet, so every node's estimator holds its integrals and the
// timed copies are all cache hits (the kernel idles while the serving
// layers work), then the open-loop window, then closed-loop passes of the
// fleet for rounds_per_s. In trace mode the window is bracketed by metrics
// scrapes for the per-layer split and no pass runs. It returns what every
// acknowledged ingest carried.
func (c *clusterRig) drive(ctx context.Context, opts options, rep *report, in serveInputs) (ingestLog, error) {
	clients := make([]*http.Client, workers)
	for i := range clients {
		clients[i] = newClient()
		defer clients[i].CloseIdleConnections()
	}
	warm := &window{}
	if _, ok := c.pass(clients[0], warm, in.fleet, rep); !ok {
		return ingestLog{}, fmt.Errorf("a background campaign of the warm-up pass did not complete")
	}
	warm.checkFlights(in.fleet, rep)
	span := time.Duration(float64(opts.window) * loadShare)
	w := &window{ops: schedule(opts.seed*31, span, opts.size.routeRate, len(in.pool.bodies), len(in.batches))}
	if !opts.trace {
		heap := startHeapSampler()
		c.load(ctx, w, clients, in, rep)
		peak := heap.peakMB()
		w.checkFlights(in.fleet, rep)
		rep.set("solve_p50_ms", w.slicedMedian(opSolve))
		rep.set("ingest_p50_ms", w.slicedMedian(opIngest))
		rep.set("peak_heap_mb", peak)
		rep.set("rounds_per_s", c.passes(clients[0], in, opts.window-span, opts.size.minReps, rep))
		rep.set("sim_latency", in.fleet.sim)
		return w.ingested, nil
	}
	before, proxiedBefore, err := c.metrics(clients[0])
	if err != nil {
		return ingestLog{}, err
	}
	mergesBefore := c.mg.Stats().Merges
	c.load(ctx, w, clients, in, rep)
	after, proxiedAfter, err := c.metrics(clients[0])
	if err != nil {
		return ingestLog{}, err
	}
	w.checkFlights(in.fleet, rep)
	w.perLayer(before, after, rep)
	routed := median(w.latencies(opSolve, func(d bool) bool { return !d }, true))
	direct := median(w.latencies(opSolve, func(d bool) bool { return d }, true))
	rep.set("cluster.hop_ms", routed-direct)
	rep.set("cluster.proxied", float64(proxiedAfter-proxiedBefore))
	rep.set("cluster.merges", float64(c.mg.Stats().Merges-mergesBefore))
	rep.set("cluster.replica_lag", c.replicaLag())
	// The cluster's per-layer figures come from counters the nodes keep
	// anyway; nothing is traced, so there is no tracing overhead.
	rep.set("trace.overhead_share", 0)
	dec, hdl, enc := replayPool(in.pool, in.est, 5, rep)
	rep.set("server.decode_us", dec)
	rep.set("server.handler_us", hdl)
	rep.set("server.encode_us", enc)
	return w.ingested, nil
}

// pass flies every background campaign once, one after another, on one
// connection, into w. It returns the rounds run, and false if a campaign
// did not complete.
func (c *clusterRig) pass(hc *http.Client, w *window, fleet *bgFleet, rep *report) (int, bool) {
	rounds := 0
	for range fleet.docs {
		if !c.fly(hc, w, fleet) {
			rep.ops(1, 1)
			return rounds, false
		}
		rep.ops(1, 0)
		rounds += w.flights[len(w.flights)-1].result.RoundsRun
	}
	return rounds, true
}

// passes runs closed-loop passes with no other load until span has
// passed (at least minPasses), checks every campaign, and returns the
// median over passes of rounds per wall second.
func (c *clusterRig) passes(hc *http.Client, in serveInputs, span time.Duration, minPasses int, rep *report) float64 {
	w := &window{}
	var rates []float64
	deadline := time.Now().Add(span)
	for len(rates) < minPasses || time.Now().Before(deadline) {
		start := time.Now()
		rounds, ok := c.pass(hc, w, in.fleet, rep)
		if !ok {
			rep.failf("a background campaign of a closed-loop pass did not complete")
			return 0
		}
		rates = append(rates, float64(rounds)/time.Since(start).Seconds())
	}
	w.checkFlights(in.fleet, rep)
	return median(rates)
}

// metrics reads the router's /v1/metrics fan-out: the nodes' layer
// counters summed, and the router's proxied count.
func (c *clusterRig) metrics(hc *http.Client) (serverDelta, uint64, error) {
	var doc routerDoc
	if err := scrape(hc, c.url, &doc); err != nil {
		return serverDelta{}, 0, err
	}
	if len(doc.Nodes) != len(c.nodes) {
		return serverDelta{}, 0, fmt.Errorf("metrics fan-out covers %d of %d nodes", len(doc.Nodes), len(c.nodes))
	}
	docs := make([]server.MetricsSnapshot, 0, len(doc.Nodes))
	for _, m := range doc.Nodes {
		docs = append(docs, m)
	}
	return sumMetrics(docs), doc.Router.Proxied, nil
}
