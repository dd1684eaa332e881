package congest

import (
	"errors"
	"fmt"

	"repro/internal/graph"
)

// This file is the recovery layer over the fault-injection engine: an
// Adversary wraps a FaultPlan plus the retry policy, and every protocol the
// self-sufficient pipeline needs — leader election, BFS tree construction,
// the pipelined tree layer, part-wise aggregation, the flooding
// construction — has an adversary-aware entry point that detects
// non-convergence (the engine's ErrAborted, the protocols' ErrIncomplete
// fixed-point self-checks) and retries with a doubled round budget, up to a
// cap of attempts.
//
// Convergence guarantee: every retried protocol validates its converged
// state against the same sequential fixed point the fault-free run uses
// (the repo's sequential-oracle convention), so a successful resilient run
// is *identical* — same tree, same priorities, same shortcut, same cap — to
// the fault-free run. And whenever the adversary's disruptions have a
// finite horizon (bounded link-down and crash intervals, DropUntil set) and
// leave the graph connected, some doubled budget eventually grants an
// attempt a clean window after the horizon, which then converges
// deterministically — so the retry loop terminates with the fault-free
// answer. A drop probability with no horizon degrades this to a
// probabilistic guarantee for the once-only token streams (Pipecast /
// PipeBroadcast forward each token once; any lost token voids the whole
// attempt), which is why FaultPlan.DropUntil exists.
//
// Retries advance the adversary's timeline (FaultPlan.Offset) by each
// attempt's granted budget: the retried protocol faces the continuation of
// the fault schedule, never a verbatim replay of the coins that just
// defeated it.
//
// Limitation (documented, by design): protocols whose per-node state lives
// in shared slabs rebuild nothing when a crash restarts a node with
// Wipe — the SyncProtocol factory returns the shared RoundFunc, so a wiped
// restart degrades to a preserve-state restart. Whole-protocol retries,
// not per-node wipes, are the recovery mechanism here.

// Adversary couples a fault plan with the retry policy and tracks how much
// of the plan's timeline has been consumed across attempts. The zero
// Attempts selects 8, the fault-free doubling cap. A nil
// *Adversary is valid everywhere and means "no faults": the adversary-aware
// entry points degrade to the plain fault-free protocols.
type Adversary struct {
	Plan     FaultPlan
	Attempts int

	// Retries counts retryable failures absorbed so far (all protocols).
	Retries int

	consumed int // rounds of the plan's timeline granted to attempts
}

// NewAdversary wraps a fault plan with the default retry policy.
func NewAdversary(plan FaultPlan) *Adversary { return &Adversary{Plan: plan} }

// attempts returns the retry cap.
func (a *Adversary) attempts() int {
	if a == nil || a.Attempts <= 0 {
		return 8
	}
	return a.Attempts
}

// Consumed reports how many rounds of the adversary's timeline have been
// granted to protocol attempts (successful or not) — the resilient
// pipeline's honest notion of elapsed adversarial time.
func (a *Adversary) Consumed() int {
	if a == nil {
		return 0
	}
	return a.consumed
}

// options builds one attempt's engine options: the plan shifted to the
// current timeline position, and the attempt's round budget consumed from
// the timeline whether or not the run uses all of it (the consumption must
// be deterministic, and a run's actual length is only known after the
// fact).
func (a *Adversary) options(maxRounds int) Options {
	p := a.Plan.Clone()
	p.Offset = a.Plan.Offset + a.consumed
	a.consumed += maxRounds
	return Options{MaxRounds: maxRounds, Faults: p}
}

// Retryable reports whether err is a transient non-convergence a doubled
// budget may fix: an aborted run (round bound exceeded, out-of-schedule
// token) or a failed fixed-point self-check. Anything else — malformed
// input, a caller bug — is permanent.
func Retryable(err error) bool {
	return errors.Is(err, ErrAborted) || errors.Is(err, ErrIncomplete)
}

// retry runs attempt under a round budget that starts at budget and
// doubles after every retryable failure, booking each one in Retries (a nil
// adversary books nothing), up to the attempt cap; a permanent error ends
// the loop at once. On exhaustion the returned error carries the last
// budget tried.
func (a *Adversary) retry(protocol string, budget int, attempt func(budget int) error) error {
	var last error
	for i := 0; i < a.attempts(); i++ {
		err := attempt(budget)
		if err == nil || !Retryable(err) {
			return err
		}
		last = err
		if a != nil {
			a.Retries++
		}
		budget *= 2
	}
	return &IncompleteError{Protocol: protocol, Budget: budget / 2,
		Detail: fmt.Sprintf("%d attempts exhausted, last: %v", a.attempts(), last)}
}

// runOptions builds one attempt's engine options for the fixed-budget
// flooding protocols (AggregateMin, ConstructShortcut): nodes stop at their
// local round budget, so the engine bound is headroom only. Under an
// adversary the headroom doubles, since crashes stall nodes' local round
// counters.
func (a *Adversary) runOptions(budget int) Options {
	if a == nil {
		return Options{MaxRounds: budget + 64}
	}
	return a.options(2*budget + 64)
}

// LeaderElect elects the minimum vertex ID under the adversary with the
// re-broadcasting election flood, for a budget of rounds that starts at
// diamBound+1 and doubles per attempt; an attempt whose votes are not
// unanimous on the minimum retries. A nil adversary is LeaderElectSync.
func (a *Adversary) LeaderElect(g *graph.Graph, diamBound int) (leader int, stats Stats, err error) {
	if a == nil {
		return LeaderElectSync(g, diamBound, Options{})
	}
	if err := electArgs(g, diamBound); err != nil {
		return -1, stats, err
	}
	err = a.retry("LeaderElect", diamBound+1, func(budget int) error {
		// Crashes stall a node's local round counter, so grant the engine
		// headroom beyond the per-node budget.
		s, err := electFlood(g, budget, true, a.options(2*budget+64))
		stats.Add(s)
		return err
	})
	if err != nil {
		return -1, stats, err
	}
	return 0, stats, nil
}

// BFS builds the canonical elected BFS tree from root under the adversary
// with the re-broadcasting distance flood, for a budget of rounds that
// starts at diamBound+2 and doubles per attempt. Re-broadcasting makes the
// flood self-stabilizing under message loss: any clean window of
// diameter-many rounds after the adversary's horizon re-offers every
// distance and the nodes settle on true BFS levels and lowest-port parents.
// An attempt whose tree differs from CanonicalBFSParents retries, so a
// successful run returns the identical tree the fault-free pipeline elects.
// A nil adversary is DistributedBFSSync.
func (a *Adversary) BFS(g *graph.Graph, root, diamBound int) (parent, parentEdge []int, stats Stats, err error) {
	if a == nil {
		return DistributedBFSSync(g, root, diamBound, Options{})
	}
	wantParent, wantEdge, err := bfsArgs(g, root, diamBound)
	if err != nil {
		return nil, nil, stats, err
	}
	err = a.retry("BFS", diamBound+2, func(budget int) error {
		var s Stats
		parent, parentEdge, s, err = bfsFlood(g, root, budget, true, wantParent, wantEdge, a.options(2*budget+64))
		stats.Add(s)
		return err
	})
	if err != nil {
		return nil, nil, stats, err
	}
	return parent, parentEdge, stats, nil
}

// Pipecast is the pipelined convergecast under the adversary: whole-run
// restarts with doubled budget (the token streams emit each token once, so
// any loss voids the attempt; the run's own fixed-point validation plus the
// engine's schedule checks detect every such loss). A nil adversary
// delegates to the plain Pipecast.
func (a *Adversary) Pipecast(t *graph.Tree, numTags int, contrib [][]Token, comb Combiner) (res *PipecastResult, err error) {
	if a == nil {
		return Pipecast(t, numTags, contrib, comb)
	}
	err = a.retry("Pipecast", t.Height()+numTags+64, func(budget int) error {
		res, err = pipecastOpts(t, numTags, contrib, comb, a.options(budget))
		return err
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// PipeBroadcast is the pipelined broadcast under the adversary (see
// Pipecast).
func (a *Adversary) PipeBroadcast(t *graph.Tree, tokens []Token) (res *BroadcastResult, err error) {
	if a == nil {
		return PipeBroadcast(t, tokens)
	}
	err = a.retry("PipeBroadcast", t.Height()+len(tokens)+64, func(budget int) error {
		res, err = pipeBroadcastOpts(t, tokens, a.options(budget))
		return err
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// treeCombineUnder is treeCombine routed through the adversary's Pipecast
// (nil adversary = fault-free).
func treeCombineUnder(t *graph.Tree, values []uint64, comb Combiner, a *Adversary) (total uint64, stats Stats, err error) {
	g := t.G
	if len(values) != g.N() {
		return 0, stats, fmt.Errorf("congest: %d values for %d vertices", len(values), g.N())
	}
	backing := make([]Token, g.N())
	contrib := make([][]Token, g.N())
	for v := range contrib {
		backing[v] = Token{Tag: 0, Value: values[v]}
		contrib[v] = backing[v : v+1 : v+1]
	}
	res, err := a.Pipecast(t, 1, contrib, comb)
	if err != nil {
		return 0, stats, err
	}
	return res.Values[0], res.Stats, nil
}
