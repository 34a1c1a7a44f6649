package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"hputune/internal/campaign"
	"hputune/internal/inference"
	"hputune/internal/server"
)

// tinyScale keeps every workload to a few seconds.
var tinyScale = scale{
	setups: 1, paperSeeds: 1, warmFleet: 2, warmRounds: 2, pool: 4,
	routeRate: 30, minReps: 1,
}

// runTiny runs one workload at tiny size and returns its result line.
func runTiny(t *testing.T, workload, trace string) result {
	t.Helper()
	var stdout, stderr bytes.Buffer
	args := []string{"-workload", workload, "-seed", "3", "-seconds", "0.6", "-trace", trace, "-dir", t.TempDir()}
	code := run(args, tinyScale, &stdout, &stderr)
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%s trace %s: last line %q is not a result: %v (stderr %s)", workload, trace, lines[len(lines)-1], err, stderr.String())
	}
	if code != 0 || !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Fatalf("%s trace %s: exit %d, result %+v, stderr %s", workload, trace, code, res, stderr.String())
	}
	return res
}

// TestEveryMetricEmitted runs every workload at tiny size in both modes
// and checks that each reports exactly its metric set with the declared
// units, and that the end-to-end metrics are all non-zero.
func TestEveryMetricEmitted(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for name := range workloads {
		t.Run(name, func(t *testing.T) {
			for _, mode := range []struct {
				trace string
				set   []struct{ name, unit string }
			}{{"0", endToEnd}, {"1", perLayer}} {
				res := runTiny(t, name, mode.trace)
				if len(res.Metrics) != len(mode.set) {
					t.Fatalf("trace %s: %d metrics, want %d", mode.trace, len(res.Metrics), len(mode.set))
				}
				for _, m := range mode.set {
					got, ok := res.Metrics[m.name]
					if !ok || got.Unit != m.unit {
						t.Fatalf("trace %s: metric %s = %+v, want unit %s", mode.trace, m.name, got, m.unit)
					}
					if mode.trace == "0" && !(got.Value > 0) {
						t.Fatalf("end-to-end metric %s = %v, want > 0", m.name, got.Value)
					}
				}
			}
		})
	}
}

// TestBadArgumentsFail covers the argument guard: no result line, a
// non-zero exit.
func TestBadArgumentsFail(t *testing.T) {
	for _, args := range [][]string{
		{"-workload", "nope"},
		{"-seconds", "0"},
		{"-trace", "2"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(append(args, "-dir", t.TempDir()), tinyScale, &stdout, &stderr); code == 0 || stdout.Len() != 0 {
			t.Fatalf("%v: exit %d, stdout %q", args, code, stdout.String())
		}
	}
}

// TestInputsFollowSeed pins that inputs are a pure function of the seed.
func TestInputsFollowSeed(t *testing.T) {
	a, _, err := newPool(5, 4)
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := newPool(5, 4)
	if err != nil {
		t.Fatal(err)
	}
	c, _, err := newPool(6, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) || reflect.DeepEqual(a.bodies, c.bodies) {
		t.Fatal("solve pool is not a function of the seed alone")
	}
	s1 := schedule(5, 1e9, 50, 4, 8)
	s2 := schedule(5, 1e9, 50, 4, 8)
	s3 := schedule(6, 1e9, 50, 4, 8)
	if !reflect.DeepEqual(s1, s2) || reflect.DeepEqual(s1, s3) {
		t.Fatal("request schedule is not a function of the seed alone")
	}
}

// TestDoctoredSolveReplyFails is a negative control: a real reply from a
// served node passes the check, and the same reply with one digit
// changed fails it.
func TestDoctoredSolveReplyFails(t *testing.T) {
	p, _, err := newPool(7, 2)
	if err != nil {
		t.Fatal(err)
	}
	n, err := startNode(t.TempDir(), "neg")
	if err != nil {
		t.Fatal(err)
	}
	defer n.close()
	c := newClient()
	defer c.CloseIdleConnections()
	status, raw, err := call(c, http.MethodPost, n.url+"/v1/solve", p.bodies[0], nil)
	if err != nil || status != http.StatusOK {
		t.Fatalf("solve: status %d, %v", status, err)
	}
	if err := checkSolveReply(p.replies[0], raw); err != nil {
		t.Fatalf("genuine reply rejected: %v", err)
	}
	doctored := bytes.Replace(raw, []byte(`"spent":`), []byte(`"spent":1`), 1)
	if bytes.Equal(doctored, raw) {
		t.Fatalf("reply %s has no spent field to doctor", raw)
	}
	if err := checkSolveReply(p.replies[0], doctored); err == nil {
		t.Fatal("doctored solve reply passed the check")
	}
}

// TestDoctoredFitFails is a negative control for the fit checks: after
// real ingests the node's published fit and state dir pass, a fit one
// ULP off fails, and aggregates missing one record fail the state-dir
// replay check.
func TestDoctoredFitFails(t *testing.T) {
	batches, err := ingestBatches(7)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	n, err := startNode(dir, "neg")
	if err != nil {
		t.Fatal(err)
	}
	c := newClient()
	defer c.CloseIdleConnections()
	log := newIngestLog()
	for _, b := range batches[:6] {
		status, _, err := call(c, http.MethodPost, n.url+"/v1/ingest", b.body, map[string]string{server.DefaultClientHeader: b.client})
		if err != nil || status != http.StatusOK {
			n.close()
			t.Fatalf("ingest: status %d, %v", status, err)
		}
		log.add(b.client, b.aggs, b.records)
	}
	aggs, records := log.total(nil)
	status, raw, err := call(c, http.MethodGet, n.url+"/v1/stats", nil, nil)
	if err != nil || status != http.StatusOK {
		n.close()
		t.Fatalf("stats: status %d, %v", status, err)
	}
	var st server.StatsResponse
	if err := json.Unmarshal(raw, &st); err != nil {
		n.close()
		t.Fatal(err)
	}
	if err := checkFitInfo(st.Fit, aggs); err != nil {
		n.close()
		t.Fatalf("genuine fit rejected: %v", err)
	}
	doctored := *st.Fit
	doctored.Slope = math.Nextafter(doctored.Slope, math.Inf(1))
	if err := checkFitInfo(&doctored, aggs); err == nil {
		n.close()
		t.Fatal("fit one ULP off passed the check")
	}
	if err := n.close(); err != nil {
		t.Fatal(err)
	}

	rep := newReport()
	checkStateDir(dir, aggs, records, rep)
	if len(rep.problems) != 0 {
		t.Fatalf("genuine state dir rejected: %v", rep.problems)
	}
	short := inference.MergeAggregates(nil, aggs)
	for price, a := range short {
		a.N--
		short[price] = a
		break
	}
	rep = newReport()
	checkStateDir(dir, short, records, rep)
	if len(rep.problems) == 0 {
		t.Fatal("state dir replaying one record more than claimed passed the check")
	}
	rep = newReport()
	checkStateDir(filepath.Join(dir, "missing"), aggs, records, rep)
	if len(rep.problems) == 0 {
		t.Fatal("missing state dir passed the check")
	}
}

// TestDoctoredFleetFails is a negative control for the fleet check: the
// reference passes, a result with one round's makespan nudged fails.
func TestDoctoredFleetFails(t *testing.T) {
	cfgs := warmFleet(9, tinyScale)
	rep := newReport()
	ref, err := fleetReference(context.Background(), cfgs, rep)
	if err != nil || len(rep.problems) != 0 {
		t.Fatalf("reference: %v %v", err, rep.problems)
	}
	var got []campaign.Result
	if err := json.Unmarshal(ref, &got); err != nil {
		t.Fatal(err)
	}
	if p := checkFleet(ref, cfgs, got); len(p) != 0 {
		t.Fatalf("genuine results rejected: %v", p)
	}
	got[1].Rounds[0].Makespan = math.Nextafter(got[1].Rounds[0].Makespan, 0)
	if p := checkFleet(ref, cfgs, got); len(p) == 0 {
		t.Fatal("doctored fleet passed the check")
	}
}

// TestBenchmarkJSONMatches keeps the repository's BENCHMARK.json and
// the metric sets this program reports in step.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	for _, set := range []struct {
		declared []struct{ Name, Unit string }
		reported []struct{ name, unit string }
	}{{doc.EndToEnd, endToEnd}, {doc.PerLayer, perLayer}} {
		if len(set.declared) != len(set.reported) {
			t.Fatalf("BENCHMARK.json declares %d metrics, the program reports %d", len(set.declared), len(set.reported))
		}
		for i, m := range set.declared {
			if m.Name != set.reported[i].name || m.Unit != set.reported[i].unit {
				t.Fatalf("metric %d: declared %s (%s), reported %s (%s)", i, m.Name, m.Unit, set.reported[i].name, set.reported[i].unit)
			}
		}
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the program has %d", len(doc.Workloads), len(workloads))
	}
	for _, w := range doc.Workloads {
		if workloads[w.Name] == nil {
			t.Fatalf("declared workload %q is not implemented", w.Name)
		}
	}
}
