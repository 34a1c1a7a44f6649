package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"time"

	"hputune/internal/campaign"
	"hputune/internal/engine"
	"hputune/internal/htuning"
	"hputune/internal/market"
	"hputune/internal/randx"
	"hputune/internal/workload"
)

// seam is a benchmark-owned campaign.Executor and campaign.Journal for
// one campaign. It executes rounds on the market simulator exactly as
// the default executor does for a stationary campaign (same seed, same
// posting order, same task IDs) and cuts each round at its boundaries:
//
//	tune:    previous Journal.Round (or Run start) → Execute entry
//	execute: the Execute call
//	fold:    Execute return → Journal.Round
//
// Traced seams also keep every span in memory.
type seam struct {
	name     string
	groups   []campaign.Group
	idSuffix [][]string
	traced   bool

	buf  market.Buffers
	recs []market.RepRecord

	start, end time.Time // campaign Run call
	mark       time.Time // last round boundary
	execEnd    time.Time

	tune, exec, fold []time.Duration
	records          int
	spans            []span
}

// span is one traced interval of a campaign round.
type span struct {
	campaign, layer string
	round           int
	start, end      time.Time
}

func newSeam(cfg campaign.Config, traced bool) (*seam, error) {
	if cfg.Drift.Kind != campaign.DriftNone || cfg.Market != (campaign.MarketOptions{}) ||
		cfg.Query != nil || cfg.Retainer != nil || cfg.Deadline != nil || cfg.Executor != nil {
		return nil, fmt.Errorf("campaign %s: the seam executor runs stationary market campaigns only", cfg.Name)
	}
	s := &seam{name: cfg.Name, groups: cfg.Groups, traced: traced}
	s.idSuffix = make([][]string, len(cfg.Groups))
	for gi, g := range cfg.Groups {
		s.idSuffix[gi] = make([]string, g.Tasks)
		for ti := range s.idSuffix[gi] {
			s.idSuffix[gi][ti] = "-" + g.Name + "-t" + strconv.Itoa(ti)
		}
	}
	return s, nil
}

// Execute posts one task per (group, task) at the allocation's
// repetition prices and runs the simulation to completion.
func (s *seam) Execute(ctx context.Context, round int, p htuning.Problem, a htuning.Allocation, seed uint64) (campaign.Observation, error) {
	entry := time.Now()
	s.tune = append(s.tune, entry.Sub(s.mark))
	if s.traced {
		s.spans = append(s.spans, span{s.name, "tune", round, s.mark, entry})
	}
	if len(a.RepPrices) != len(s.groups) {
		return campaign.Observation{}, fmt.Errorf("allocation covers %d groups, campaign has %d", len(a.RepPrices), len(s.groups))
	}
	sim, err := market.NewWithBuffers(market.Config{Seed: seed}, &s.buf)
	if err != nil {
		return campaign.Observation{}, err
	}
	prefix := s.name + "-r" + strconv.Itoa(round)
	for gi, g := range s.groups {
		for ti := 0; ti < g.Tasks; ti++ {
			err := sim.Post(market.TaskSpec{ID: prefix + s.idSuffix[gi][ti], Class: g.Class, RepPrices: a.RepPrices[gi][ti]})
			if err != nil {
				return campaign.Observation{}, err
			}
		}
	}
	if err := ctx.Err(); err != nil {
		return campaign.Observation{}, err
	}
	if _, err := sim.Run(); err != nil {
		return campaign.Observation{}, err
	}
	s.recs = sim.AppendRecords(s.recs[:0])
	obs := campaign.Observation{Records: s.recs, Makespan: sim.Makespan()}
	s.records += len(s.recs)
	s.execEnd = time.Now()
	s.exec = append(s.exec, s.execEnd.Sub(entry))
	if s.traced {
		s.spans = append(s.spans, span{s.name, "execute", round, entry, s.execEnd})
	}
	return obs, nil
}

// Round closes the round's fold span.
func (s *seam) Round(_ string, snap campaign.RoundSnapshot, _ campaign.Checkpoint) {
	now := time.Now()
	s.fold = append(s.fold, now.Sub(s.execEnd))
	if s.traced {
		s.spans = append(s.spans, span{s.name, "fold", snap.Round, s.execEnd, now})
	}
	s.mark = now
}

// Finished is a no-op: terminal events close no round.
func (s *seam) Finished(string, campaign.Checkpoint) {}

// fleetRun is one repetition of a fleet through the seams.
type fleetRun struct {
	results []campaign.Result
	wall    time.Duration
	seams   []*seam
	cache   htuning.CacheStats // estimator counter deltas over the run
}

func (f fleetRun) rounds() int {
	n := 0
	for _, r := range f.results {
		n += r.RoundsRun
	}
	return n
}

// runSeamFleet is campaign.RunFleet with every campaign's executor and
// journal replaced by a seam: the same bounded engine pool, the shared
// estimator, campaign.New + Run per config.
func runSeamFleet(ctx context.Context, est *htuning.Estimator, cfgs []campaign.Config, traced bool) (fleetRun, error) {
	seams := make([]*seam, len(cfgs))
	for i, cfg := range cfgs {
		s, err := newSeam(cfg, traced)
		if err != nil {
			return fleetRun{}, err
		}
		seams[i] = s
	}
	before := est.CacheStats()
	start := time.Now()
	results, err := engine.Map(len(cfgs), workers, func(i int) (campaign.Result, error) {
		cfg := cfgs[i]
		cfg.Executor = seams[i]
		c, err := campaign.New(est, cfg)
		if err != nil {
			return campaign.Result{}, err
		}
		c.SetJournal(seams[i], cfg.Name)
		seams[i].start = time.Now()
		seams[i].mark = seams[i].start
		res, err := c.Run(ctx)
		seams[i].end = time.Now()
		return res, err
	})
	wall := time.Since(start)
	if err != nil {
		return fleetRun{}, err
	}
	for _, s := range seams {
		// The simulator buffers are per-repetition scratch; drop them so
		// a window's bookkeeping holds only its samples.
		s.buf, s.recs = market.Buffers{}, nil
	}
	after := est.CacheStats()
	return fleetRun{
		results: results, wall: wall, seams: seams,
		cache: htuning.CacheStats{Hits: after.Hits - before.Hits, Misses: after.Misses - before.Misses},
	}, nil
}

// fleetBudget is the campaign's total budget after defaults.
func fleetBudget(cfg campaign.Config) int {
	if cfg.Budget > 0 {
		return cfg.Budget
	}
	rounds := cfg.MaxRounds
	if rounds <= 0 {
		rounds = campaign.DefaultMaxRounds
	}
	return rounds * cfg.RoundBudget
}

// checkFleet compares a fleet's results with the reference encoding and
// checks the invariants that hold for any correct program: every status
// terminal, spend within budget, nothing failed. It returns the problems
// found.
func checkFleet(ref []byte, cfgs []campaign.Config, got []campaign.Result) []string {
	var problems []string
	raw, err := json.Marshal(got)
	if err != nil {
		return []string{fmt.Sprintf("encode fleet results: %v", err)}
	}
	if string(raw) != string(ref) {
		problems = append(problems, "fleet results differ from the one-worker campaign.RunFleet reference")
	}
	if len(got) != len(cfgs) {
		return append(problems, fmt.Sprintf("%d results for %d campaigns", len(got), len(cfgs)))
	}
	for i, r := range got {
		if !r.Status.Terminal() || r.Status == campaign.StatusFailed || r.Status == campaign.StatusCanceled {
			problems = append(problems, fmt.Sprintf("campaign %s ended %s", r.Name, r.Status))
		}
		if b := fleetBudget(cfgs[i]); r.Spent > b || r.Spent < 0 {
			problems = append(problems, fmt.Sprintf("campaign %s spent %d of a %d budget", r.Name, r.Spent, b))
		}
		if r.RoundsRun == 0 {
			problems = append(problems, fmt.Sprintf("campaign %s ran no round", r.Name))
		}
	}
	return problems
}

// fleetReference runs the fleet on one worker with a fresh estimator —
// the untimed warm-up pass and the reference every timed repetition
// must reproduce byte for byte.
func fleetReference(ctx context.Context, cfgs []campaign.Config, rep *report) ([]byte, error) {
	ref, err := campaign.RunFleet(ctx, htuning.NewEstimator(), cfgs, 1)
	if err != nil {
		return nil, fmt.Errorf("reference fleet: %w", err)
	}
	raw, err := json.Marshal(ref)
	if err != nil {
		return nil, err
	}
	for _, p := range checkFleet(raw, cfgs, ref) {
		rep.failf("reference: %s", p)
	}
	return raw, nil
}

// coldFleet is the paper fleet's stationary campaigns, drawn so a run's
// cost does not hinge on one seed: fig5c at the paper preset's default
// seed (0), first so it starts at once, then fig2-homo, fig2-repe,
// fig2-heter and fig2-homo-quadratic from PaperCampaignFleet(s) for
// size.paperSeeds seeds s drawn from seed. fig5c's round count is
// bimodal in its seed (2 cheap rounds, or 6+ rounds of 20-repetition
// E[max] misses at ten times the cost), so a seed-drawn fig5c would
// swing the fleet's cost fourfold between seeds.
func coldFleet(seed uint64, size scale) ([]campaign.Config, error) {
	var cfgs []campaign.Config
	stationary := func(s uint64, keep func(name string) bool) error {
		all, err := workload.PaperCampaignFleet(s)
		if err != nil {
			return err
		}
		for _, cfg := range all {
			if cfg.Drift.Kind == campaign.DriftNone && cfg.Market == (campaign.MarketOptions{}) && keep(cfg.Name) {
				cfgs = append(cfgs, cfg)
			}
		}
		return nil
	}
	if err := stationary(0, func(name string) bool { return name == "fig5c" }); err != nil {
		return nil, err
	}
	seeds := randx.New(seed)
	for k := 0; k < size.paperSeeds; k++ {
		if err := stationary(seeds.Uint64(), func(name string) bool { return name != "fig5c" }); err != nil {
			return nil, err
		}
	}
	return cfgs, nil
}

// warmFleet is the benchmark campaign fleet with seeds drawn from seed.
func warmFleet(seed uint64, size scale) []campaign.Config {
	cfgs := workload.BenchCampaignFleetSize(size.warmFleet, size.warmRounds)
	seeds := randx.New(seed)
	for i := range cfgs {
		cfgs[i].Seed = seeds.Uint64()
	}
	return cfgs
}

func runFleetCold(ctx context.Context, opts options, rep *report) error {
	cfgs, err := coldFleet(opts.seed, opts.size)
	if err != nil {
		return err
	}
	ref, err := fleetReference(ctx, cfgs, rep)
	if err != nil {
		return err
	}
	// Nothing persists between repetitions (every one gets a fresh
	// estimator), so set-up is the process warm-up pass: a whole fleet on
	// the timed path's pool width.
	_, setup, err := timedSetups(opts.size.setups, func(int) (struct{}, error) {
		res, err := campaign.RunFleet(ctx, htuning.NewEstimator(), cfgs, workers)
		if err != nil {
			return struct{}{}, err
		}
		for _, p := range checkFleet(ref, cfgs, res) {
			rep.failf("set-up pass: %s", p)
		}
		return struct{}{}, nil
	}, func(struct{}) {})
	if err != nil {
		return err
	}
	rep.set("setup_s", setup)
	return measureFleet(ctx, opts, rep, cfgs, ref, htuning.NewEstimator)
}

func runFleetWarm(ctx context.Context, opts options, rep *report) error {
	cfgs := warmFleet(opts.seed, opts.size)
	ref, err := fleetReference(ctx, cfgs, rep)
	if err != nil {
		return err
	}
	// Set-up warms the estimator with one identical run, so every timed
	// lookup hits.
	est, setup, err := timedSetups(opts.size.setups, func(int) (*htuning.Estimator, error) {
		est := htuning.NewEstimator()
		res, err := campaign.RunFleet(ctx, est, cfgs, workers)
		if err != nil {
			return nil, err
		}
		for _, p := range checkFleet(ref, cfgs, res) {
			rep.failf("set-up pass: %s", p)
		}
		return est, nil
	}, func(*htuning.Estimator) {})
	if err != nil {
		return err
	}
	rep.set("setup_s", setup)
	return measureFleet(ctx, opts, rep, cfgs, ref, func() *htuning.Estimator { return est })
}

// fleetWindow accumulates the repetitions of one window.
type fleetWindow struct {
	rates  []float64 // rounds per wall second, per repetition
	walls  []float64 // repetition wall seconds
	tune50 []float64 // per-repetition medians of the per-round tune and
	fold50 []float64 // fold spans, milliseconds
	first  []byte    // encoded results of the first repetition
	sim    float64
	rounds int
	reps   int

	// Traced totals.
	tuneSum, execSum, foldSum, campaignWall time.Duration
	records                                 int
	hits, misses                            uint64
}

// add folds one checked repetition into the window.
func (w *fleetWindow) add(fr fleetRun) {
	n := fr.rounds()
	w.reps++
	w.rounds += n
	w.sim = simLatency(fr.results)
	w.rates = append(w.rates, float64(n)/fr.wall.Seconds())
	w.walls = append(w.walls, fr.wall.Seconds())
	w.hits += fr.cache.Hits
	w.misses += fr.cache.Misses
	var tune, fold []float64
	for _, s := range fr.seams {
		for _, d := range s.tune {
			tune = append(tune, durMS(d))
		}
		for _, d := range s.fold {
			fold = append(fold, durMS(d))
		}
		w.campaignWall += s.end.Sub(s.start)
		w.records += s.records
		for _, sp := range s.spans {
			switch d := sp.end.Sub(sp.start); sp.layer {
			case "tune":
				w.tuneSum += d
			case "execute":
				w.execSum += d
			case "fold":
				w.foldSum += d
			}
		}
	}
	w.tune50 = append(w.tune50, quantile(tune, 0.50))
	w.fold50 = append(w.fold50, quantile(fold, 0.50))
}

// simLatency is the paper's objective over a fleet: the geometric mean,
// over campaigns, of each campaign's mean simulated makespan per round.
// Campaign time scales differ a thousandfold (fig5c's calibrated job
// against the fig2 tasks), so an arithmetic mean would be fig5c's alone.
func simLatency(results []campaign.Result) float64 {
	logSum, n := 0.0, 0
	for _, r := range results {
		if r.RoundsRun > 0 && r.TotalMakespan > 0 {
			logSum += math.Log(r.TotalMakespan / float64(r.RoundsRun))
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(logSum / float64(n))
}

// repeatFleet runs the fleet through the seams until the window closes
// (at least minReps times), checking every repetition.
func repeatFleet(ctx context.Context, opts options, rep *report, cfgs []campaign.Config, ref []byte,
	estFor func() *htuning.Estimator, window time.Duration, traced bool) (fleetWindow, error) {
	var w fleetWindow
	deadline := time.Now().Add(window)
	for w.reps < opts.size.minReps || time.Now().Before(deadline) {
		fr, err := runSeamFleet(ctx, estFor(), cfgs, traced)
		if err != nil {
			rep.ops(1, 1)
			return w, err
		}
		for _, p := range checkFleet(ref, cfgs, fr.results) {
			rep.failf("repetition %d: %s", w.reps, p)
		}
		if w.first == nil {
			w.first, _ = json.Marshal(fr.results)
		}
		rep.ops(fr.rounds(), 0)
		w.add(fr)
	}
	return w, nil
}

// measureFleet reports the end-to-end metrics of an untraced window, or,
// in trace mode, an untraced half-window followed by a traced one whose
// spans give the per-layer split.
func measureFleet(ctx context.Context, opts options, rep *report, cfgs []campaign.Config, ref []byte, estFor func() *htuning.Estimator) error {
	if !opts.trace {
		heap := startHeapSampler()
		w, err := repeatFleet(ctx, opts, rep, cfgs, ref, estFor, opts.window, false)
		peak := heap.peakMB()
		if err != nil {
			return err
		}
		rep.set("rounds_per_s", median(w.rates))
		rep.set("sim_latency", w.sim)
		rep.set("solve_p50_ms", median(w.tune50))
		rep.set("ingest_p50_ms", median(w.fold50))
		rep.set("peak_heap_mb", peak)
		return nil
	}
	plain, err := repeatFleet(ctx, opts, rep, cfgs, ref, estFor, opts.window/2, false)
	if err != nil {
		return err
	}
	t, err := repeatFleet(ctx, opts, rep, cfgs, ref, estFor, opts.window/2, true)
	if err != nil {
		return err
	}
	if string(t.first) != string(plain.first) {
		rep.failf("traced fleet results differ from the untraced ones")
	}
	rounds := float64(t.rounds)
	rep.set("campaign.tune_ms", ratio(durMS(t.tuneSum), rounds))
	rep.set("campaign.execute_ms", ratio(durMS(t.execSum), rounds))
	rep.set("campaign.fold_ms", ratio(durMS(t.foldSum), rounds))
	rep.set("campaign.span_coverage", ratio(float64(t.tuneSum+t.execSum+t.foldSum), float64(t.campaignWall)))
	rep.set("htuning.cache_hits", float64(t.hits))
	rep.set("htuning.cache_misses", float64(t.misses))
	rep.set("htuning.hit_ratio", ratio(float64(t.hits), float64(t.hits+t.misses)))
	rep.set("htuning.ms_per_miss", ratio(durMS(t.tuneSum), float64(t.misses)))
	rep.set("market.records", float64(t.records))
	rep.set("market.us_per_record", ratio(durMS(t.execSum)*1000, float64(t.records)))
	rep.set("inference.us_per_record", ratio(durMS(t.foldSum)*1000, float64(t.records)))
	rep.set("trace.overhead_share", ratio(median(t.walls), median(plain.walls))-1)
	return nil
}
