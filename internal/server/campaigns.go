package server

import (
	"errors"
	"fmt"
	"io"
	"net/http"

	"hputune/internal/campaign"
	"hputune/internal/pricing"
	"hputune/internal/spec"
	"hputune/internal/store"
	"hputune/internal/traffic"
)

// Campaign service ceilings, enforced before any campaign starts so one
// hostile fleet cannot pin the process for hours (each round is a solve
// plus a market run, so rounds × round-budget bounds the work).
const (
	// maxFleetCampaigns bounds campaigns per POST /v1/campaigns.
	maxFleetCampaigns = 64
	// maxCampaignRounds bounds one campaign's round deadline.
	maxCampaignRounds = 4096
	// maxQueryItems bounds a crowd-query campaign's dataset: every round
	// replans the whole query, so items² bounds the per-round vote count.
	maxQueryItems = 2048
)

// checkCampaignLimits enforces the service ceilings on one campaign,
// reusing the per-problem bounds on its round shape (a campaign round
// is exactly one solve of that problem).
func checkCampaignLimits(i int, cfg campaign.Config) error {
	if cfg.MaxRounds > maxCampaignRounds {
		return fmt.Errorf("campaign %d: %d rounds above the %d-round service limit", i, cfg.MaxRounds, maxCampaignRounds)
	}
	if cfg.RoundBudget > maxProblemBudget {
		return fmt.Errorf("campaign %d: round budget %d above the %d-unit service limit", i, cfg.RoundBudget, maxProblemBudget)
	}
	if cfg.RoundBudget > 0 && cfg.RoundBudget*len(cfg.Groups) > maxProblemWork {
		return fmt.Errorf("campaign %d: round budget %d × %d groups above the %d-step service limit", i, cfg.RoundBudget, len(cfg.Groups), maxProblemWork)
	}
	if q := cfg.Query; q != nil {
		// Crowd-query campaigns derive their groups inside campaign.New,
		// so the per-group loop below never sees them; bound the query
		// shape directly instead.
		if q.Items > maxQueryItems {
			return fmt.Errorf("campaign %d: query over %d items above the %d-item service limit", i, q.Items, maxQueryItems)
		}
		if q.Reps > maxProblemReps {
			return fmt.Errorf("campaign %d: query with %d votes per task above the %d-repetition service limit", i, q.Reps, maxProblemReps)
		}
	}
	reps := 0
	for _, g := range cfg.Groups {
		if g.Tasks > maxProblemReps || g.Reps > maxProblemReps {
			return fmt.Errorf("campaign %d: %d tasks × %d reps above the %d-repetition service limit", i, g.Tasks, g.Reps, maxProblemReps)
		}
		if g.Tasks > 0 && g.Reps > 0 {
			reps += g.Tasks * g.Reps
		}
		if reps > maxProblemReps {
			return fmt.Errorf("campaign %d: more than %d total repetitions per round (service limit)", i, maxProblemReps)
		}
	}
	return nil
}

// CampaignStartResponse is the POST /v1/campaigns reply: the ids of the
// accepted campaigns, in spec order. Campaigns run in the background —
// poll GET /v1/campaigns/{id} for rounds and terminal status.
type CampaignStartResponse struct {
	IDs []string `json:"ids"`
}

// handleCampaignStart parses a campaign spec document ("campaign",
// "campaigns" or "fleet" top level) and starts every campaign in it,
// atomically: a rejected fleet starts nothing. Campaigns are background
// work bounded by the manager's active cap, not the solve gate — a
// running fleet must not starve interactive solves of permits, and vice
// versa.
func (s *Server) handleCampaignStart(w http.ResponseWriter, r *http.Request) {
	// Campaign control is priority-class work on the main gate: the body
	// parse is bounded but not free, and a bulk flood must not be able
	// to delay a re-tune loop's start. The launched campaigns themselves
	// run in the background under the manager's own cap.
	if !s.admitPriority(w, "campaign-start") {
		return
	}
	defer s.gate.Release(traffic.Priority)
	raw, err := io.ReadAll(r.Body)
	if err != nil {
		WriteError(w, badRequestStatus(err), "%v", err)
		return
	}
	opts := s.buildOpts()
	cfgs, err := spec.ParseCampaigns(raw, opts)
	if err != nil {
		WriteError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if len(cfgs) > maxFleetCampaigns {
		WriteError(w, http.StatusBadRequest, "fleet of %d campaigns above the %d service limit; split it", len(cfgs), maxFleetCampaigns)
		return
	}
	for i, cfg := range cfgs {
		if err := checkCampaignLimits(i, cfg); err != nil {
			WriteError(w, http.StatusBadRequest, "%v", err)
			return
		}
	}
	ids, err := s.startFleet(raw, opts, cfgs)
	if err != nil {
		switch {
		case errors.Is(err, campaign.ErrCapacity):
			WriteOverloaded(w, overloadRetry, "%v", err)
		case errors.Is(err, campaign.ErrClosed):
			writeSuspended(w, "server is draining: %v", err)
		default:
			WriteError(w, http.StatusBadRequest, "%v", err)
		}
		return
	}
	WriteJSON(w, http.StatusAccepted, CampaignStartResponse{IDs: ids})
}

// startFleet launches an admitted fleet. With a durable store the
// launch is held until the fleet's start record — the verbatim spec,
// the assigned ids, and the "fitted" model the parse resolved against —
// is journaled, so WAL replay always sees a fleet before any of its
// rounds; recovery re-parses the spec to rebuild the configs.
func (s *Server) startFleet(raw []byte, opts spec.BuildOpts, cfgs []campaign.Config) ([]string, error) {
	if s.st == nil {
		return s.campaigns.StartAll(cfgs)
	}
	ids, launch, err := s.campaigns.StartAllHeld(cfgs)
	if err != nil {
		return nil, err
	}
	var fitted *store.FittedModel
	if lin, ok := opts.Fitted.(pricing.Linear); ok {
		fitted = &store.FittedModel{K: lin.K, B: lin.B}
	}
	// A store failure is sticky and surfaced via its OnError hook; the
	// fleet still launches — the serving process degrades to in-memory
	// durability rather than refusing work.
	_ = s.st.AppendFleet(raw, ids, fitted)
	launch()
	return ids, nil
}

// CampaignGetResponse is the GET /v1/campaigns/{id} reply.
type CampaignGetResponse struct {
	ID string `json:"id"`
	// Stale marks a reply served from a follower replica instead of the
	// owning node (cluster router only, while the owner is down but not
	// yet promoted): correct as of the replica's last shipped record,
	// possibly behind the dead node's final acknowledged rounds.
	Stale bool `json:"stale,omitempty"`
	campaign.Result
}

func (s *Server) handleCampaignGet(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	res, ok := s.campaigns.Get(id)
	if !ok {
		WriteError(w, http.StatusNotFound, "unknown campaign %q", id)
		return
	}
	WriteJSON(w, http.StatusOK, CampaignGetResponse{ID: id, Result: res})
}

// CampaignListResponse is the GET /v1/campaigns reply.
type CampaignListResponse struct {
	Campaigns []campaign.Summary `json:"campaigns"`
	// StaleNodes names nodes whose campaigns were listed from their
	// follower replicas (cluster router only, while those nodes are down
	// but not yet promoted); their summaries may trail the dead node's
	// final acknowledged rounds.
	StaleNodes []string `json:"staleNodes,omitempty"`
}

func (s *Server) handleCampaignList(w http.ResponseWriter, r *http.Request) {
	WriteJSON(w, http.StatusOK, CampaignListResponse{Campaigns: s.campaigns.List()})
}

// handleCampaignCancel requests cancellation; the reply carries the
// snapshot at cancel time (possibly still "running" — a mid-round
// cancel settles, without publishing that round, moments later).
func (s *Server) handleCampaignCancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	res, ok := s.campaigns.Cancel(id)
	if !ok {
		WriteError(w, http.StatusNotFound, "unknown campaign %q", id)
		return
	}
	WriteJSON(w, http.StatusOK, CampaignGetResponse{ID: id, Result: res})
}
