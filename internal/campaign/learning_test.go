package campaign

import (
	"context"
	"testing"

	"hputune/internal/pricing"
)

// TestCampaignApproachesOracle pins the value of re-fitting. The prior
// believes payment barely moves the acceptance rate, so round 0 starves
// the 40-task group; an oracle campaign starts from the true model.
// Over several seeds the wrong prior's round 0 must be clearly slower
// than the oracle's rounds, and the rounds priced on the fit must land
// near them.
func TestCampaignApproachesOracle(t *testing.T) {
	const seeds = 5
	// rounds returns the mean makespan of round 0 and of the later rounds.
	rounds := func(prior pricing.RateModel) (first, later float64) {
		for s := uint64(0); s < seeds; s++ {
			res, err := Run(context.Background(), nil, Config{
				Groups: []Group{
					{Name: "big", Tasks: 40, Reps: 3, Class: linClass("vote", 1, 1, 4)},
					{Name: "small", Tasks: 10, Reps: 5, Class: linClass("vote", 1, 1, 4)},
				},
				Prior:       prior,
				RoundBudget: 2500,
				MaxRounds:   4,
				Seed:        100 + s,
			})
			if err != nil {
				t.Fatal(err)
			}
			first += res.Rounds[0].Makespan / seeds
			later += (res.TotalMakespan - res.Rounds[0].Makespan) / float64(res.RoundsRun-1) / seeds
		}
		return first, later
	}
	oracle0, oracle := rounds(pricing.Linear{K: 1, B: 1})
	prior, fitted := rounds(pricing.Linear{K: 0.05, B: 8})
	t.Logf("mean round makespan: oracle %.3f/%.3f h, wrong prior %.3f then fitted %.3f h", oracle0, oracle, prior, fitted)
	if prior < 1.2*oracle {
		t.Errorf("wrong prior's round 0 %.3f h is not clearly slower than the oracle's rounds %.3f h", prior, oracle)
	}
	if fitted > 1.1*oracle {
		t.Errorf("rounds priced on the fit %.3f h more than 10%% slower than the oracle's %.3f h", fitted, oracle)
	}
}
