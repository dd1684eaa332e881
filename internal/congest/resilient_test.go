package congest_test

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/congest"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/partition"
)

// testPlan is a connected-preserving fault plan: finite drop horizon,
// finite outages, finite crash windows — every retry past the horizon runs
// clean, so the resilient protocols must converge.
func testPlan(g *graph.Graph) congest.FaultPlan {
	return congest.FaultPlan{
		Seed:      41,
		DropProb:  0.2,
		DropUntil: 200,
		LinkDowns: []congest.LinkDown{{Edge: 0, From: 1, To: 30}, {Edge: g.M() - 1, From: 4, To: 16}},
		Crashes: []congest.Crash{
			{Node: g.N() / 3, Round: 2, Restart: 14},
			{Node: g.N() - 1, Round: 6, Restart: 18, Wipe: true},
		},
	}
}

// TestAdversaryElectionAndBFSMatchFaultFree pins the tentpole convergence
// property at the primitive level: under a connectivity-preserving fault
// plan, the resilient election and BFS reach the sequential fixed points
// the fault-free floods converge to: the minimum ID and the canonical BFS
// tree.
func TestAdversaryElectionAndBFSMatchFaultFree(t *testing.T) {
	for _, tc := range []struct {
		name string
		g    *graph.Graph
	}{
		{"grid", gen.Grid(6, 7).G},
		{"wheel", gen.Wheel(33).G},
	} {
		t.Run(tc.name, func(t *testing.T) {
			diam := 2*graph.DiameterApprox(tc.g) + 2
			const wantLeader = 0 // the minimum vertex ID
			wantParent, wantEdge, err := congest.CanonicalBFSParents(tc.g, wantLeader)
			if err != nil {
				t.Fatal(err)
			}
			adv := congest.NewAdversary(testPlan(tc.g))
			leader, _, err := adv.LeaderElect(tc.g, diam)
			if err != nil {
				t.Fatal(err)
			}
			if leader != wantLeader {
				t.Fatalf("faulted election chose %d, want %d", leader, wantLeader)
			}
			parent, parentEdge, _, err := adv.BFS(tc.g, leader, diam)
			if err != nil {
				t.Fatal(err)
			}
			for v := range wantParent {
				if parent[v] != wantParent[v] || parentEdge[v] != wantEdge[v] {
					t.Fatalf("vertex %d: faulted BFS (%d,%d), canonical (%d,%d)",
						v, parent[v], parentEdge[v], wantParent[v], wantEdge[v])
				}
			}
		})
	}
}

// TestAdversaryRetriesThenConverges forces first attempts to fail — total
// loss until a horizon — and requires the retry loop to push the protocol
// past the horizon into a clean window and still produce the fault-free
// answer, booking at least one retry.
func TestAdversaryRetriesThenConverges(t *testing.T) {
	g := gen.Cycle(8)
	diam := 2*graph.DiameterApprox(g) + 2
	adv := congest.NewAdversary(congest.FaultPlan{Seed: 3, DropProb: 1, DropUntil: 50})
	leader, stats, err := adv.LeaderElect(g, diam)
	if err != nil {
		t.Fatal(err)
	}
	if leader != 0 {
		t.Fatalf("elected %d, want 0", leader)
	}
	if adv.Retries == 0 {
		t.Fatal("total loss until round 50 cost no retries — the adversary never engaged")
	}
	if stats.Dropped == 0 {
		t.Fatalf("no drops recorded across attempts: %+v", stats)
	}
	if adv.Consumed() <= 50 {
		t.Fatalf("adversary timeline consumed only %d rounds", adv.Consumed())
	}
}

// TestRetryableAndIncompleteError pins the typed-error satellite: the
// IncompleteError carries protocol context, still satisfies
// errors.Is(err, ErrIncomplete), and both abort and incompleteness are
// retryable while plain errors are not.
func TestRetryableAndIncompleteError(t *testing.T) {
	ie := &congest.IncompleteError{Protocol: "BFS", Rounds: 12, Budget: 10, Detail: "x"}
	if !errors.Is(ie, congest.ErrIncomplete) {
		t.Fatal("IncompleteError does not unwrap to ErrIncomplete")
	}
	for _, s := range []string{"BFS", "10", "12"} {
		if !strings.Contains(ie.Error(), s) {
			t.Fatalf("IncompleteError message %q misses %q", ie.Error(), s)
		}
	}
	if !congest.Retryable(ie) {
		t.Fatal("IncompleteError not retryable")
	}
	if !congest.Retryable(fmt.Errorf("wrap: %w", congest.ErrAborted)) {
		t.Fatal("wrapped ErrAborted not retryable")
	}
	if congest.Retryable(errors.New("disk on fire")) {
		t.Fatal("arbitrary error retryable")
	}
	if congest.Retryable(nil) {
		t.Fatal("nil error retryable")
	}
}

// TestProtocolsReturnIncompleteError pins that undersized budgets surface
// as the typed error at the established call sites.
func TestProtocolsReturnIncompleteError(t *testing.T) {
	g := gen.Path(30)
	var ie *congest.IncompleteError
	if _, _, _, err := congest.DistributedBFSSync(g, 0, 2, congest.Options{}); !errors.As(err, &ie) {
		t.Fatalf("BFS with tiny diameter bound: got %v, want IncompleteError", err)
	} else if ie.Protocol != "BFS" {
		t.Fatalf("protocol %q, want BFS", ie.Protocol)
	}
}

// TestRetryExhaustionReportsLastBudget pins the shared doubling loop's
// exhaustion contract for the fixed-budget floods: under total loss every
// attempt fails, each failure books one retry, and the returned
// IncompleteError carries the last budget actually tried — the first
// budget doubled once per retry after the first attempt.
func TestRetryExhaustionReportsLastBudget(t *testing.T) {
	grid := gen.Grid(6, 6).G
	tr, err := graph.BFSTree(grid, 0)
	if err != nil {
		t.Fatal(err)
	}
	p, err := partition.GridRows(grid, 6, 6)
	if err != nil {
		t.Fatal(err)
	}
	const attempts = 3
	adv := &congest.Adversary{Plan: congest.FaultPlan{Seed: 1, DropProb: 1}, Attempts: attempts}
	_, err = congest.ConstructShortcut(grid, tr, p, congest.ConstructOptions{Cap: 2, Simulate: true, Adversary: adv})
	var ie *congest.IncompleteError
	if !errors.As(err, &ie) || ie.Protocol != "ConstructShortcut" {
		t.Fatalf("total loss: got %v, want a ConstructShortcut IncompleteError", err)
	}
	if want := congest.ConstructBudget(tr, 2) << (attempts - 1); ie.Budget != want {
		t.Fatalf("exhausted budget %d, want the last one tried, %d", ie.Budget, want)
	}
	if adv.Retries != attempts {
		t.Fatalf("%d retries booked over %d failed attempts", adv.Retries, attempts)
	}
}
