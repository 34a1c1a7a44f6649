package adaptive

import (
	"context"
	"math"
	"strings"
	"testing"

	"hputune/internal/campaign"
	"hputune/internal/htuning"
	"hputune/internal/market"
	"hputune/internal/pricing"
)

// trueModel is the market's actual acceptance behaviour in these tests.
var trueModel = pricing.Linear{K: 1, B: 1}

func voteClass() *market.TaskClass {
	return &market.TaskClass{Name: "vote", Accept: trueModel, ProcRate: 4, Accuracy: 1}
}

// testGroups has two repetition counts, so the solver prices the groups
// at two levels and every round's observations can yield a fit.
func testGroups() []campaign.Group {
	return []campaign.Group{
		{Name: "g3", Tasks: 25, Reps: 3, Class: voteClass()},
		{Name: "g5", Tasks: 25, Reps: 5, Class: voteClass()},
	}
}

func run(t *testing.T, cfg campaign.Config) campaign.Result {
	t.Helper()
	res, err := campaign.Run(context.Background(), nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestControllerValidation(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*campaign.Config)
	}{
		{"starved budget", func(c *campaign.Config) { c.RoundBudget = 10 }},
		{"no groups", func(c *campaign.Config) { c.Groups = nil }},
		{"nil prior", func(c *campaign.Config) { c.Prior = nil }},
		{"zero-task group", func(c *campaign.Config) { c.Groups[0].Tasks = 0 }},
	}
	for _, tc := range cases {
		cfg := campaign.Config{Groups: testGroups(), Prior: trueModel, RoundBudget: 1000}
		tc.mut(&cfg)
		if _, err := campaign.New(nil, cfg); err == nil {
			t.Errorf("%s accepted", tc.name)
		}
	}
}

func TestControllerCompletesAndSpendsWithinBudget(t *testing.T) {
	cfg := campaign.Config{Groups: testGroups(), Prior: trueModel, RoundBudget: 1500, Budget: 6000, MaxRounds: 4, Seed: 3}
	res := run(t, cfg)
	if !res.Status.Terminal() || res.RoundsRun < 1 {
		t.Fatalf("status %s after %d rounds", res.Status, res.RoundsRun)
	}
	if res.Spent > cfg.Budget || res.Spent+res.Remaining != cfg.Budget {
		t.Errorf("spent %d + remaining %d, budget %d", res.Spent, res.Remaining, cfg.Budget)
	}
	// Every round runs the whole job: 25×3 + 25×5 repetitions, one price
	// per group, within the round's own budget.
	for _, r := range res.Rounds {
		if r.Makespan <= 0 {
			t.Errorf("round %d has no makespan", r.Round)
		}
		if r.Spent > r.Budget || r.Budget > cfg.RoundBudget {
			t.Errorf("round %d spent %d of %d (round budget %d)", r.Round, r.Spent, r.Budget, cfg.RoundBudget)
		}
		if r.Records != 200 || len(r.Prices) != 2 {
			t.Errorf("round %d observed %d repetitions at prices %v, want 200 at two group prices", r.Round, r.Records, r.Prices)
		}
	}
}

func TestBeliefRecoversTrueModel(t *testing.T) {
	// Start from a badly wrong prior; after the run the published fit
	// and the per-price rate estimates behind it must be near the truth.
	c, err := campaign.New(nil, campaign.Config{
		Groups:      testGroups(),
		Prior:       pricing.Linear{K: 6, B: 0.2},
		RoundBudget: 2500,
		MaxRounds:   6,
		Epsilon:     0.05,
		Seed:        11,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	chk := c.Checkpoint()
	if len(chk.Aggs) < 2 {
		t.Fatalf("observed %d price levels, need 2 for a fit", len(chk.Aggs))
	}
	// Each observed level's MLE must be near the true rate.
	for p, agg := range chk.Aggs {
		got, err := agg.Rate()
		if err != nil {
			t.Fatal(err)
		}
		if want := trueModel.Rate(float64(p)); math.Abs(got-want) > 0.35*want {
			t.Errorf("price %d: λ̂ = %v, true %v", p, got, want)
		}
	}
	if chk.Fit == nil || math.Abs(chk.Fit.Slope-1) > 0.5 {
		t.Errorf("fit %+v, want a slope near the true 1", chk.Fit)
	}
}

func TestAdaptiveBeatsFrozenWrongPrior(t *testing.T) {
	// Belief shape only matters when the workload is asymmetric: the
	// planner equalizes per-cost marginal gains (H_n/n)·g(p) across
	// groups, so with equal task counts every belief yields the same
	// near-uniform plan. Here a 40-task group faces a 10-task group, and
	// the wrong prior believes price barely moves the rate (g almost
	// flat): its plan starves the big group at price 1 and dumps the
	// budget on the small group. Round 0 is priced on that prior, the
	// plan a frozen controller would repeat every round; the rounds
	// priced on the fit of the observed on-hold times must finish
	// clearly faster.
	const seeds = 5
	var frozen, adaptive float64
	for s := uint64(0); s < seeds; s++ {
		res := run(t, campaign.Config{
			Groups: []campaign.Group{
				{Name: "big", Tasks: 40, Reps: 3, Class: voteClass()},
				{Name: "small", Tasks: 10, Reps: 5, Class: voteClass()},
			},
			Prior:       pricing.Linear{K: 0.05, B: 8},
			RoundBudget: 2500,
			MaxRounds:   3,
			Seed:        100 + s,
		})
		if res.RoundsRun < 2 {
			t.Fatalf("seed %d: %d rounds, need a round priced on the fit", 100+s, res.RoundsRun)
		}
		frozen += res.Rounds[0].Makespan / seeds
		for _, r := range res.Rounds[1:] {
			adaptive += r.Makespan / float64(len(res.Rounds)-1) / seeds
		}
	}
	if adaptive >= frozen {
		t.Errorf("adaptive %.3f not faster than frozen wrong prior %.3f", adaptive, frozen)
	}
}

// fallingRate reports on-hold times that lengthen with the price, so the
// per-price MLE rates fall as the payment rises (a noise artifact the
// Linearity Hypothesis rules out).
type fallingRate struct{}

func (fallingRate) Execute(_ context.Context, _ int, _ htuning.Problem, a htuning.Allocation, _ uint64) (campaign.Observation, error) {
	var obs campaign.Observation
	for _, tasks := range a.RepPrices {
		for _, reps := range tasks {
			for i, p := range reps {
				rec := market.RepRecord{Rep: i, Price: p, Accepted: 0.1 * float64(p)}
				rec.Done = rec.Accepted + 0.25
				obs.Records = append(obs.Records, rec)
				obs.Makespan = math.Max(obs.Makespan, rec.Done)
			}
		}
	}
	return obs, nil
}

func TestBeliefRejectsNegativeSlope(t *testing.T) {
	res := run(t, campaign.Config{
		Groups:      testGroups(),
		Prior:       trueModel,
		RoundBudget: 1500,
		MaxRounds:   3,
		Executor:    fallingRate{},
	})
	// The decreasing fit must never be published: every round stays
	// priced on the (increasing) prior, so the allocation repeats and the
	// campaign settles on the prior after its second round.
	if res.RoundsRun < 2 {
		t.Fatalf("ran %d rounds, need one priced after a rejected fit: %s %q", res.RoundsRun, res.Status, res.Reason)
	}
	for _, r := range res.Rounds {
		if r.Fit != nil || !strings.Contains(r.FitPending, "violates") {
			t.Errorf("round %d published %+v (pending %q)", r.Round, r.Fit, r.FitPending)
		}
		if r.Model != trueModel.Name() {
			t.Errorf("round %d priced on %q, want the prior %q", r.Round, r.Model, trueModel.Name())
		}
	}
	if res.Fit != nil {
		t.Errorf("final belief %+v is not the prior", res.Fit)
	}
}
