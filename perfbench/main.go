// Command perfbench is the repository benchmark: three workloads that
// drive the closed loop (tune → execute → re-fit) and the serving stack
// through their public seams, measure them from outside, and check every
// output against a reference computed in the same run by another path.
//
//	go run . -workload fleet-cold -seed 1 -seconds 10 -trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
// With -trace 0 the metrics are the end-to-end set, with -trace 1 the
// per-layer set (see README.md). A failed check prints correct=false
// and exits 1.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"time"
)

// workers bounds the benchmark's own concurrency: fleet worker
// goroutines and load-generator client connections.
const workers = 2

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's one-line verdict.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEnd and perLayer list every reported metric with its unit; each
// workload reports all of them (0 where a layer is not exercised).
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"rounds_per_s", "1/s"},
	{"sim_latency", "simtime"},
	{"solve_p50_ms", "ms"},
	{"ingest_p50_ms", "ms"},
	{"peak_heap_mb", "MB"},
}

var perLayer = []struct{ name, unit string }{
	{"campaign.tune_ms", "ms"},
	{"campaign.execute_ms", "ms"},
	{"campaign.fold_ms", "ms"},
	{"campaign.span_coverage", "share"},
	{"htuning.cache_hits", "count"},
	{"htuning.cache_misses", "count"},
	{"htuning.hit_ratio", "share"},
	{"htuning.ms_per_miss", "ms"},
	{"market.records", "count"},
	{"market.us_per_record", "us"},
	{"inference.us_per_record", "us"},
	{"store.appends", "count"},
	{"store.wal_bytes", "bytes"},
	{"store.fsync_probe_ms", "ms"},
	{"server.solve_ms", "ms"},
	{"server.ingest_ms", "ms"},
	{"server.transport_ms", "ms"},
	{"server.decode_us", "us"},
	{"server.handler_us", "us"},
	{"server.encode_us", "us"},
	{"traffic.bulk_rejected", "count"},
	{"traffic.priority_rejected", "count"},
	{"traffic.shed", "count"},
	{"cluster.hop_ms", "ms"},
	{"cluster.proxied", "count"},
	{"cluster.merges", "count"},
	{"cluster.replica_lag", "count"},
	{"loadgen.late_p99_ms", "ms"},
	{"loadgen.solve_p99_ms", "ms"},
	{"loadgen.ingest_p99_ms", "ms"},
	{"loadgen.failed_share", "share"},
	{"trace.overhead_share", "share"},
}

// options is one invocation.
type options struct {
	workload string
	seed     uint64
	window   time.Duration
	trace    bool
	// dir is a scratch directory the run owns (state dirs, probes).
	dir string
	// size scales the workload; tests shrink it.
	size scale
}

// scale holds the size knobs of every workload; fullScale is what the
// command runs, the tests shrink it.
type scale struct {
	setups     int     // set-up repetitions (setup_s is their median)
	paperSeeds int     // seeds the paper campaigns are drawn from (fleet-cold, cluster background)
	warmFleet  int     // fleet-warm campaigns
	warmRounds int     // fleet-warm rounds per campaign
	pool       int     // distinct solve specs
	routeRate  float64 // cluster-routed offered requests per second
	minReps    int     // fleet repetitions and campaign passes measured at least
}

var fullScale = scale{
	setups: 3, paperSeeds: 8, warmFleet: 16, warmRounds: 8, pool: 32,
	routeRate: 150, minReps: 3,
}

// report accumulates one run's counts, metrics and failed checks.
type report struct {
	mu        sync.Mutex
	attempted int
	failed    int
	metrics   map[string]float64
	problems  []string
}

func newReport() *report { return &report{metrics: make(map[string]float64)} }

func (r *report) set(name string, v float64) {
	r.mu.Lock()
	r.metrics[name] = v
	r.mu.Unlock()
}

// failf records a failed correctness check.
func (r *report) failf(format string, args ...any) {
	r.mu.Lock()
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
	r.mu.Unlock()
}

func (r *report) ops(attempted, failed int) {
	r.mu.Lock()
	r.attempted += attempted
	r.failed += failed
	r.mu.Unlock()
}

// result renders the verdict with the metric set the trace mode selects.
func (r *report) result(trace bool) result {
	set := endToEnd
	if trace {
		set = perLayer
	}
	out := result{
		Correct:   len(r.problems) == 0 && r.attempted > 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   make(map[string]metric, len(set)),
	}
	for _, m := range set {
		out.Metrics[m.name] = metric{Value: r.metrics[m.name], Unit: m.unit}
	}
	return out
}

// workloads maps each name to its runner.
var workloads = map[string]func(context.Context, options, *report) error{
	"fleet-cold":     runFleetCold,
	"fleet-warm":     runFleetWarm,
	"cluster-routed": runClusterRouted,
}

func main() {
	os.Exit(run(os.Args[1:], fullScale, os.Stdout, os.Stderr))
}

// run executes one invocation at the given workload size and returns
// the process exit code.
func run(args []string, size scale, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "fleet-cold", "workload: fleet-cold, fleet-warm or cluster-routed")
	seed := fs.Uint64("seed", 1, "workload seed")
	seconds := fs.Float64("seconds", 10, "measured window in seconds")
	trace := fs.Int("trace", 0, "1 reports the per-layer metrics of a traced run")
	dir := fs.String("dir", ".bench_build", "scratch directory for state dirs and probes")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fn, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: bad arguments (workload %q, seconds %v, trace %d)\n", *name, *seconds, *trace)
		return 2
	}
	if err := os.MkdirAll(*dir, 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	runDir, err := os.MkdirTemp(*dir, "run-")
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(runDir)
	opts := options{
		workload: *name, seed: *seed, window: time.Duration(*seconds * float64(time.Second)),
		trace: *trace == 1, dir: runDir, size: size,
	}
	rep := newReport()
	probe, err := fsyncProbe(runDir)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: fsync probe: %v\n", err)
		return 1
	}
	rep.set("store.fsync_probe_ms", probe)
	fmt.Fprintf(stdout, "env: nproc=%d gomaxprocs=%d go=%s cpu=%q fsync_probe_ms=%.4f workload=%s seed=%d seconds=%g trace=%d\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), cpuModel(), probe, *name, *seed, *seconds, *trace)
	if err := fn(context.Background(), opts, rep); err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	res := rep.result(opts.trace)
	for _, p := range rep.problems {
		fmt.Fprintf(stderr, "perfbench: check failed: %s\n", p)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

// fsyncProbe times a raw 4 KiB write+fsync on the scratch directory's
// filesystem — the disk floor under every WAL commit — and returns the
// median of 16 trials in milliseconds.
func fsyncProbe(dir string) (float64, error) {
	f, err := os.Create(filepath.Join(dir, "fsync-probe"))
	if err != nil {
		return 0, err
	}
	defer os.Remove(f.Name())
	defer f.Close()
	block := make([]byte, 4096)
	var ms []float64
	for i := 0; i < 16; i++ {
		start := time.Now()
		if _, err := f.Write(block); err != nil {
			return 0, err
		}
		if err := f.Sync(); err != nil {
			return 0, err
		}
		ms = append(ms, durMS(time.Since(start)))
	}
	return median(ms), f.Close()
}

// cpuModel reads the CPU model name, or "unknown".
func cpuModel() string {
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// heapSampler tracks the peak of live-plus-unswept heap object bytes
// while it runs, read from runtime/metrics (no stop-the-world).
type heapSampler struct {
	stop chan struct{}
	done chan struct{}
	peak uint64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		sample := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(sample)
			if v := sample[0].Value.Uint64(); v > h.peak {
				h.peak = v
			}
			select {
			case <-h.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// peakMB stops the sampler and returns the peak in MiB.
func (h *heapSampler) peakMB() float64 {
	close(h.stop)
	<-h.done
	return float64(h.peak) / (1 << 20)
}

// timedSetups runs setup n times, tears down all but the last, and
// returns the last one with the median set-up time in seconds.
func timedSetups[T any](n int, setup func(i int) (T, error), teardown func(T)) (T, float64, error) {
	var last T
	var secs []float64
	for i := 0; i < n; i++ {
		start := time.Now()
		v, err := setup(i)
		if err != nil {
			return last, 0, err
		}
		secs = append(secs, time.Since(start).Seconds())
		if i < n-1 {
			teardown(v)
		}
		last = v
	}
	return last, median(secs), nil
}

func durMS(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// median returns the middle value (mean of the two middle values for an
// even count); 0 for no values.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile by linear interpolation between the
// closest ranks; 0 for no values.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
