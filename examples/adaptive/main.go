// Adaptive tuning: a requester who does not know the market's price→rate
// curve starts from a wrong prior. A campaign prices its first round on
// that prior, observes the round's on-hold times, re-fits the Linearity
// Hypothesis and prices every later round on the fit — so round 0 is the
// stubborn requester who never updates, and the rounds after it show
// what learning the market buys.
package main

import (
	"context"
	"fmt"
	"log"

	"hputune"
)

func main() {
	// The market truly behaves as λo(c) = c + 1, but the requester
	// believes payment barely matters (λo ≈ 8 regardless of price).
	truth := hputune.Linear{K: 1, B: 1}
	wrongPrior := hputune.Linear{K: 0.05, B: 8}

	class := &hputune.TaskClass{
		Name:     "vote",
		Accept:   truth,
		ProcRate: 4,
		Accuracy: 1,
	}
	res, err := hputune.RunCampaign(context.Background(), nil, hputune.Campaign{
		Name: "vote",
		Groups: []hputune.CampaignGroup{
			{Name: "big", Tasks: 40, Reps: 3, Class: class},
			{Name: "small", Tasks: 10, Reps: 5, Class: class},
		},
		Prior:       wrongPrior,
		RoundBudget: 2500,
		MaxRounds:   6,
		Epsilon:     0.05,
		Seed:        7,
	})
	if err != nil {
		log.Fatalf("campaign: %v", err)
	}

	fmt.Println("round-by-round (round 0 is priced on the wrong prior):")
	for _, r := range res.Rounds {
		fmt.Printf("  round %d: prices %v, spent %d units, makespan %.3f h",
			r.Round, r.Prices, r.Spent, r.Makespan)
		if r.Fit != nil {
			fmt.Printf(", then fit λo(c) ≈ %.2f·c + %.2f", r.Fit.Slope, r.Fit.Intercept)
		}
		fmt.Println()
	}
	prior := res.Rounds[0].Makespan
	fitted := 0.0
	for _, r := range res.Rounds[1:] {
		fitted += r.Makespan
	}
	fitted /= float64(len(res.Rounds) - 1)
	fmt.Printf("\nprior round makespan:        %.3f h\n", prior)
	fmt.Printf("fitted rounds mean makespan: %.3f h (%.1f%% faster)\n",
		fitted, 100*(1-fitted/prior))
	fmt.Printf("\n%s after %d rounds (converged: %v)\n", res.Status, res.RoundsRun, res.Converged)
	if res.Fit != nil {
		fmt.Printf("fitted model: λo(c) ≈ %.2f·c + %.2f over %d price levels (truth: 1·c + 1)\n",
			res.Fit.Slope, res.Fit.Intercept, res.Fit.Prices)
	}
}
