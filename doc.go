// Package hputune is a Go implementation of "Tuning Crowdsourced Human
// Computation" (Cao, Liu, Chen, Jagadish — ICDE 2017): budget allocation
// that minimizes the expected completion latency of crowdsourced jobs.
//
// # The model
//
// A crowd worker is a Human Processing Unit (HPU). A task offered at
// price c waits on the marketplace for an exponential on-hold time with
// rate λo(c) (higher pay, faster pickup — the Linearity Hypothesis says
// λo(c) ≈ k·c + b), then takes an exponential processing time with rate
// λp set by task difficulty alone. A job is a set of atomic tasks, each
// answered by a number of sequential repetitions; distinct tasks run in
// parallel and the job finishes when the slowest task does.
//
// # The H-Tuning problem
//
// Given a discrete budget B, choose per-repetition payments minimizing
// the expected job latency. Three scenarios, three solvers:
//
//	Scenario I   identical tasks & repetitions  → EvenAllocation (EA)
//	Scenario II  repetitions differ by group    → SolveRepetition (RA)
//	Scenario III difficulty also differs        → SolveHeterogeneous (HA)
//
// # Quick start
//
//	typ := &hputune.TaskType{
//		Name:     "pairwise-vote",
//		Accept:   hputune.Linear{K: 1, B: 1}, // λo(c) = c + 1
//		ProcRate: 2.0,                        // λp
//	}
//	p := hputune.Problem{
//		Groups: []hputune.Group{{Type: typ, Tasks: 100, Reps: 5}},
//		Budget: 2000,
//	}
//	alloc, err := hputune.Solve(hputune.NewEstimator(), p)
//
// Solve picks the scenario solver for the instance's shape; runnable
// entry points live in the package examples (ExampleSolve,
// ExampleNewServer, ExampleCampaign).
//
// # Concurrency
//
// The tuning engine is built for multi-core use:
//
//   - Estimator is safe for concurrent use and bounded. Its memo of
//     E[max] integrals is sharded by key hash, each shard a
//     mutex-guarded LRU (default bound 65536 entries;
//     NewEstimatorCapacity picks another, CacheStats reports
//     hit/miss/eviction counters), so one estimator can back many
//     solver and simulation goroutines for the life of a serving
//     process; sharing one estimator across a batch is the intended
//     pattern, because overlapping problems reuse each other's
//     integrals, and eviction can only cost a recompute, never change
//     a result.
//   - SolveRepetition and SolveHeterogeneous fan their independent
//     sub-computations (the two greedy rules, the two Utopia-Point
//     objectives, per-candidate evaluations) across goroutines
//     internally while returning exactly the prices the serial solver
//     picks.
//   - SolveBatch, SolveHeterogeneousBatch and SimulateBatch spread a
//     slice of problems over a bounded worker pool (BatchOptions.Workers,
//     default GOMAXPROCS) with results in input order.
//   - SimulateJobLatencyParallel splits Monte-Carlo trials over a fixed
//     number of deterministic randx shards. Every parallel API is a pure
//     function of its arguments: the worker count never changes a
//     result, only how fast it arrives. Fixed seed in, identical
//     float64 out — on one core or sixty-four.
//
// # Performance and the benchmark harness
//
// The hot path (solve → simulate → re-fit, hundreds of rounds per
// second in a campaign fleet) is profile-tuned: the solvers score
// candidates incrementally against cached latency arrays instead of
// re-walking allocations through the estimator, the market simulator
// runs a boxing-free event heap and recycles its buffers across rounds,
// and the expensive phase-type mixture tables are interned process-wide.
// Every optimized path is pinned bit-identical to a retained reference
// implementation (SolveRepetitionReference, SolveHeterogeneousNormReference)
// by parity tests — optimization never changes a result.
//
// The standing benchmark harness, cmd/htbench, measures the declared
// suites (campaign fleet, solvers, market, inference, plus the
// by-name scaling suite: three fleet shapes at 1/4/16/64 workers,
// emitting speedup_vs_serial per cell) and writes the committed
// BENCH_<suite>.json trajectory files; `make bench-suite` regenerates
// the core four, `make bench-scaling` the speedup grid, and
// `make bench-compare` diffs a fresh run against the baselines with a
// tolerance — refusing outright when the measuring machine's core
// count differs from the baseline's, because wall-time ratios across
// core counts are meaningless. Benchmarks that dispatch concurrently
// record their worker width in the JSON, and a dispatch-assertion
// test pins that the parallel fleet really fans out (the pre-PR-7
// benchmark silently ran serial on a 1-CPU recorder and was labeled
// parallel). docs/PERFORMANCE.md documents the methodology, current
// numbers, the multi-core scaling measurements and the optimization
// log.
//
// # Scratch-buffer ownership
//
// The hot paths recycle scratch memory, under one rule: a pooled buffer
// belongs to exactly one call, from acquisition to release, and nothing
// backed by it may outlive that window — results that escape are copied
// out first. Concretely:
//
//   - solver scratch (internal): solvers copy their price vectors into
//     fresh slices before returning; callers never see pooled memory.
//   - market.Buffers (via the root MarketBuffers/NewMarketWithBuffers):
//     one Buffers belongs to one Sim at a time. Reusing it invalidates
//     everything the previous run returned by reference — Results and
//     flattened record slices — so copy anything that must survive.
//   - campaign executors recycle their market buffers between rounds;
//     an Observation's Records are therefore valid only until the next
//     Execute call on the same executor (the loop folds them into
//     aggregates before re-executing, and custom Executor
//     implementations get the same latitude).
//   - uniform allocations share one price row per group (tasks of a
//     group are identically priced by construction); treat
//     Allocation.RepPrices as read-only.
//
// # Serving
//
// NewServer wraps the batch engine in the HTTP JSON API the htuned
// binary serves: POST /v1/solve and /v1/solve-heterogeneous take the
// same spec documents the htune CLI reads, /v1/simulate scores uniform
// price plans with the deterministic trial-sharded Monte Carlo engine,
// and /v1/ingest folds observed trace records (CSV or JSON Lines)
// through the Sec 3.3 MLE into a re-fitted Linearity-Hypothesis model
// that subsequent solves pick up atomically via the "fitted" model
// kind. One process shares one bounded estimator; /v1/stats exposes the
// cache and gate counters, and shutdown drains gracefully. See the
// README for the wire shapes.
//
// # Traffic hardening and observability
//
// The serving layer is built to degrade gracefully rather than fall
// over. Admission is two-class: bulk work (solve, solve-heterogeneous,
// simulate) holds at most a configured share of the in-flight permit
// pool, while priority work (ingest, campaign control) may use the
// whole pool — a flood of bulk traffic therefore cannot starve the
// closed-loop re-tune path. Overload answers a fast 503, optional
// per-client token buckets answer 429 with a Retry-After computed from
// the client's own bucket, and an optional CPU threshold sheds bulk
// work first under pressure. All of it is configured by TrafficConfig
// (ServerConfig.Traffic; htuned's -rate-limit, -rate-burst,
// -bulk-share, -shed-cpu, -access-log flags).
//
// Every non-2xx reply, from any /v1 endpoint, carries one uniform JSON
// envelope:
//
//	{"error": {"code": "...", "message": "...", "retry_after_ms": 1000}}
//
// with a stable machine-readable code: bad_spec (malformed or
// over-limit request), not_found, method_not_allowed, too_large (body
// over the byte cap), overloaded (admission refused; retry_after_ms
// set), rate_limited (token bucket empty; retry_after_ms set),
// suspended (server draining), internal. Every response also echoes an
// X-Request-ID header (the client's, if it sent a reasonable one).
//
// GET /v1/metrics returns a MetricsSnapshot: per-endpoint latency
// histograms (fixed log-spaced buckets with p50/p90/p99), admission
// gate and rate-limiter gauges, the sampled process CPU load, estimator
// cache counters, campaign occupancy, lifetime serve counters and — on
// durable servers — WAL append/fsync/compaction counters. The
// `htbench -loadtest N` harness floods a server at N× its admission
// limit and fails unless the envelope, starvation and p99 bounds all
// hold; `make bench-smoke` runs it in CI. docs/ARCHITECTURE.md
// ("Traffic and observability") specifies the classes, the shed policy
// and every metric name.
//
// # Durability
//
// A serving process forgets nothing it learned if it is given a state
// directory: OpenStore opens (or creates) an append-only, CRC-checked,
// fsync'd write-ahead log with periodic compacting snapshots, and
// RecoverServer builds a server whose ingest aggregates, published
// fit, campaigns and lifetime counters are restored from it — with
// every unfinished campaign resumed from its last completed round.
// Resumption is bit-identical to the run that was interrupted: round
// seeds derive only from each campaign's config seed, the solvers and
// simulator are deterministic, and every persisted float round-trips
// JSON exactly, so the resumed rounds equal the rounds an
// uninterrupted process would have produced. A torn final WAL record
// (the footprint of a crash mid-append) is repaired by truncation on
// open; any other corruption fails recovery loudly rather than guess.
// Concurrent appends group-commit: records arriving while a flush is
// in flight coalesce into one frame write and one fsync
// (StoreOptions.GroupCommitWindow widens the batches; htuned's
// -group-commit flag exposes it), every append still returns only
// after its record is durable, and batches land in sequence order so
// crash recovery is always a gapless prefix containing every
// acknowledged append.
// What is deliberately not persisted: the estimator cache (pure
// memoization — recomputed on demand) and per-request serve counters.
// The htuned binary wires this up with -state-dir/-snapshot-every and
// suspends (rather than cancels) campaigns on SIGTERM so the next boot
// picks them up; htune -state inspects a directory offline. The WAL
// format and the fsync/rotation contract live in docs/ARCHITECTURE.md.
//
// # Closed-loop campaigns
//
// RunCampaign and RunCampaignFleet drive the paper's loop end to end:
// each round tunes the workload under the current belief about λo(c),
// executes the allocation on the marketplace (a CampaignExecutor — the
// simulator by default, real backends plug in), folds the observed
// acceptance timings through the per-price MLE and linearity fit, and
// atomically publishes the re-fitted belief for the next round — until
// budget exhaustion, convergence (fit delta ≤ ε with a repeated
// allocation), a round deadline, or cancellation (a mid-round cancel
// never publishes the interrupted round). The htuned service runs
// campaigns in the background under POST /v1/campaigns; the htune CLI
// runs them one-shot with -campaign; PaperCampaignFleet builds the
// paper's scenario fleet with drifted variants. Campaign results are
// pure functions of their configs — identical through every entry
// point, for any worker count. docs/ARCHITECTURE.md traces the loop.
//
// Beyond the tuning algorithms the module ships every substrate the paper
// depends on: a discrete-event marketplace simulator standing in for
// Amazon Mechanical Turk (NewMarket), parameter inference probes
// (Probe, EstimateFixedPeriod, ...), a crowd-powered database layer
// (sort/filter/max/top-k/group-by over pairwise votes, in
// internal/crowddb, surfaced by the examples), comparator baselines from
// the paper's related work (the deadline pricing of [29] and the prepaid
// Retainer Model of [26–28]), statistical model validation (KS and
// chi-square exponentiality tests, exact rate confidence intervals),
// trace interchange (CSV/JSONL), and the harness regenerating every
// figure and table of the paper's evaluation (RunExperiment). Learning
// an unknown price→rate curve while spending the budget is the
// campaign loop (RunCampaign): round 0 is priced on the prior, later
// rounds on the fit of the observed on-hold times.
//
// # API index
//
// The root package is a deliberate, audited facade over the internal
// packages — every re-export below has a consumer (an example, a test,
// a cmd, or a documented embedder pattern); anything without one is
// removed rather than left to rot. By area:
//
//   - Tuning (hputune.go): TaskType, Group, Problem, Allocation,
//     RateModel, Linear, Estimator, NewEstimator,
//     NewEstimatorCapacity, Solve, EvenAllocation, SolveRepetition,
//     SolveRepetitionDP, SolveHeterogeneous, SolveHeterogeneousNorm,
//     the baseline allocations (Bias/TaskEven/RepEven/UniformType),
//     SimulateJobLatency and the saturation diagnostics.
//   - Batch engine (engine.go): SolveBatch, SolveHeterogeneousBatch,
//     SimulateBatch, BatchOptions.
//   - Marketplace and paper harness (market.go): NewMarket,
//     MarketBuffers, the simulator option/result types, the inference
//     probes (Probe, EstimateFixedPeriod, ...) and RunExperiment.
//   - Latency distributions (distributions.go): Distribution with the
//     Exponential, Erlang, HyperExponential and LogNormal families.
//   - Validation (stats.go): TestExponential, TestExponentialBinned,
//     RateIntervalFromDurations with KSResult, ChiSquareResult, RateCI.
//   - Campaigns (campaign.go): Campaign and its part types, RunCampaign,
//     RunCampaignFleet, PaperCampaignFleet — the closed inference and
//     re-tuning loop (examples/adaptive runs one from a wrong prior).
//   - Serving (serve.go): ServerConfig, TrafficConfig, Server,
//     NewServer, MetricsSnapshot, CacheStats; durable variants Store,
//     StoreOptions, OpenStore, RecoverServer.
//   - Comparators and crowd DB (comparators.go, crowddb.go): the
//     related-work baselines and the pairwise-vote operators.
package hputune
