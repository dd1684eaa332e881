package congest

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/shortcut"
)

// ConstructOptions configures the distributed flooding construction.
type ConstructOptions struct {
	// Cap is the congestion cap b: each tree edge admits at most Cap parts
	// (values below 1 are clamped to 1, matching shortcut.Construct).
	Cap int
	// Simulate runs the construction as an actual CONGEST protocol on the
	// engine and reports measured rounds; false computes the fixed point
	// sequentially and charges the framework's construction budget
	// (the mincut/sssp two-ledger convention).
	Simulate bool
	// Priorities is the part priority ranking the eviction rule uses
	// (prio[i] = rank of part i, rank 0 highest). Nil computes the
	// block-count-driven ranking (shortcut.TreeBlockPriorities) — callers
	// that run several constructions over one part family (the cap search)
	// pass it in so the ranking, and its dissemination cost, are paid once.
	Priorities []int32
	// Adversary, when non-nil, injects its fault plan into every simulated
	// run and widens the doubling loop to its retry policy. Requires
	// Simulate (the analytic path runs no protocol to disrupt).
	Adversary *Adversary
}

// ConstructResult reports a distributed shortcut construction. Exactly one
// ledger is populated per the run's mode: EffectiveRounds/Stats when the
// protocol was simulated, ChargedRounds when the fixed point was computed
// analytically.
type ConstructResult struct {
	S *shortcut.Shortcut
	// Stats is the construction protocol's own cost (simulate mode) — the
	// quantity the framework charges as construction rounds.
	Stats Stats
	// EffectiveRounds: rounds until the flood-and-evict protocol went quiet
	// (simulate mode). The run executes a fixed budget — nodes cannot detect
	// global quiescence — so Stats.Rounds exceeds this.
	EffectiveRounds int
	// ChargedRounds is the analytic-mode construction charge,
	// ConstructBudget(t, cap).
	ChargedRounds int
	Cap           int
	// Budget is the round budget the converged simulation ran under.
	Budget int
}

// ConstructBudget is the framework's round charge for one flooding
// construction: every part ID climbs at most height levels and each tree
// edge serializes at most cap admissions (plus eviction retractions) — the
// operational O((b+1)·height) bound. The simulated protocol starts from the
// same estimate, mirroring RelaxBudget.
func ConstructBudget(t *graph.Tree, cap int) int {
	if cap < 1 {
		cap = 1
	}
	return (cap+2)*(t.Height()+2) + 8
}

// ConstructShortcut builds a tree-restricted shortcut fully in-network: the
// distributed realization of shortcut.Construct's part-wise flooding. Every
// vertex of a part holds the part's priority rank; ranks flood up the tree,
// each vertex forwarding over its parent edge the (up to) cap best ranks it
// currently knows — one ADMIT or EVICT message per edge per round — and
// retracting previously forwarded ranks when a higher-priority flood
// arrives (the eviction cascades up). The fixed point is exactly
// shortcut.FloodFixedPoint under the same priorities; the run's budget
// starts at ConstructBudget and doubles until the converged state matches
// that ground truth (the same environment-checked convergence loop
// AggregateMin uses).
func ConstructShortcut(g *graph.Graph, t *graph.Tree, p *partition.Parts, opts ConstructOptions) (*ConstructResult, error) {
	if t.G != g {
		return nil, fmt.Errorf("congest: construction tree belongs to a different graph")
	}
	if p.G != g {
		return nil, fmt.Errorf("congest: construction parts belong to a different graph")
	}
	cap := opts.Cap
	if cap < 1 {
		cap = 1
	}
	prio := opts.Priorities
	if prio == nil {
		prio = shortcut.TreeBlockPriorities(t, p)
	} else if err := shortcut.ValidPriorities(prio, p.NumParts()); err != nil {
		return nil, fmt.Errorf("congest: %w", err)
	}
	adv := opts.Adversary
	if adv != nil && !opts.Simulate {
		return nil, fmt.Errorf("congest: construction adversary requires simulate mode")
	}
	res := &ConstructResult{Cap: cap}
	if !opts.Simulate {
		res.S = shortcut.ConstructPrio(g, t, p, cap, prio)
		res.ChargedRounds = ConstructBudget(t, cap)
		return res, nil
	}
	want := shortcut.FloodFixedPoint(g, t, p, cap, prio)
	err := adv.retry("ConstructShortcut", ConstructBudget(t, cap), func(budget int) error {
		final, stats, err := runConstruct(g, t, p, cap, budget, prio, adv.runOptions(budget))
		if err != nil {
			return err
		}
		if !floodStatesEqual(final, want) {
			return &IncompleteError{Protocol: "ConstructShortcut", Budget: budget,
				Detail: "flood-and-evict state differs from the fixed point"}
		}
		res.Stats = stats
		res.EffectiveRounds = stats.LastActiveRound
		res.Budget = budget
		res.S, err = shortcut.FromFloodState(g, t, p, final, prio)
		if err != nil {
			return fmt.Errorf("congest: assembling constructed shortcut: %w", err)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

func floodStatesEqual(a, b [][]int32) bool {
	for v := range a {
		if len(a[v]) != len(b[v]) {
			return false
		}
		for i := range a[v] {
			if a[v][i] != b[v][i] {
				return false
			}
		}
	}
	return true
}

// Message ops of the construction protocol: one (op, rank) pair per tree
// edge per round, O(log n) bits.
const (
	conAdmit = 1
	conEvict = 2
)

// conNode is one vertex's protocol state. All fields are touched only from
// the node's own RoundFunc invocations, so shard workers never contend.
// All part identities are priority ranks (rank 0 = highest priority), so
// "keep the cap best" is a sorted-prefix truncation.
type conNode struct {
	parentPort int32
	own        int32 // priority rank of this vertex's part, or -1
	round      int32
	dirty      bool
	rcv        [][]int32 // per port: ranks currently admitted by that child
	sent       []int32   // sorted; what the parent currently believes, <= cap
	tmp        []int32   // scratch for the target computation
}

// runConstruct executes the flood-and-evict protocol for a fixed round
// budget and returns each node's final forwarded set (in rank space).
func runConstruct(g *graph.Graph, t *graph.Tree, p *partition.Parts, cap, budget int, prio []int32, ropts Options) ([][]int32, Stats, error) {
	n := g.N()
	final := make([][]int32, n)
	state := make([]conNode, n)
	for v := 0; v < n; v++ {
		st := &state[v]
		st.parentPort = -1
		for port, a := range g.Adj(v) {
			if a.ID == t.ParentEdge[v] && a.To == t.Parent[v] {
				st.parentPort = int32(port)
				break
			}
		}
		st.own = int32(-1)
		if pi := p.Of[v]; pi != -1 {
			st.own = prio[pi]
			st.dirty = true
		}
		// A child admits at most cap ranks (its own |sent| bound), so one
		// contiguous backing slab sliced per port keeps insSorted growth
		// out of the rounds at two setup allocations per node.
		deg := g.Degree(v)
		st.rcv = make([][]int32, deg)
		backing := make([]int32, deg*cap)
		for i := range st.rcv {
			st.rcv[i] = backing[i*cap : i*cap : (i+1)*cap]
		}
		st.sent = make([]int32, 0, cap+1)
		st.tmp = make([]int32, 0, cap+1)
	}
	step := func(nd *Node, msgs []Message) bool {
		st := &state[nd.ID]
		for _, m := range msgs {
			rank := int32(m.Payload[1])
			set := st.rcv[m.Port]
			switch m.Payload[0] {
			case conAdmit:
				st.rcv[m.Port] = insSorted(set, rank)
			case conEvict:
				st.rcv[m.Port] = delSorted(set, rank)
			}
			st.dirty = true
		}
		if int(st.round) == budget {
			final[nd.ID] = st.sent
			return false
		}
		if st.dirty && st.parentPort != -1 {
			target := conTarget(st, cap)
			// One message per round: retract the worst stale admission
			// first (keeping |sent| <= cap at all times), else forward the
			// best missing part.
			if x, ok := worstNotIn(st.sent, target); ok {
				nd.Send(int(st.parentPort), Words{conEvict, uint64(x)})
				st.sent = delSorted(st.sent, x)
			} else if x, ok := bestNotIn(target, st.sent); ok {
				nd.Send(int(st.parentPort), Words{conAdmit, uint64(x)})
				st.sent = insSorted(st.sent, x)
			} else {
				st.dirty = false
			}
		} else if st.dirty {
			st.dirty = false // root: nothing to forward
		}
		st.round++
		return true
	}
	stats, err := RunSync(g, func(*Node) RoundFunc { return step }, ropts)
	if err != nil {
		return nil, stats, err
	}
	return final, stats, nil
}

// conTarget computes the (up to) cap best priority ranks currently present
// at the node: its own part plus everything admitted by its children. The
// merge keeps only the best cap+1 candidates, so a round costs
// O(degree · cap) regardless of how many parts exist.
func conTarget(st *conNode, cap int) []int32 {
	tmp := st.tmp[:0]
	if st.own != -1 {
		tmp = append(tmp, st.own) //lint:allow hotalloc st.tmp is preallocated with cap+1 capacity at setup and insBounded keeps len <= cap
	}
	for _, set := range st.rcv {
		for _, i := range set {
			tmp = insBounded(tmp, i, cap)
		}
	}
	st.tmp = tmp
	return tmp
}

// insBounded inserts x into the sorted set keeping only the lowest bound
// elements.
func insBounded(set []int32, x int32, bound int) []int32 {
	set = insSorted(set, x)
	if len(set) > bound {
		set = set[:bound]
	}
	return set
}

// insSorted inserts x into a sorted duplicate-free slice (no-op if present).
func insSorted(set []int32, x int32) []int32 {
	lo := 0
	for lo < len(set) && set[lo] < x {
		lo++
	}
	if lo < len(set) && set[lo] == x {
		return set
	}
	set = append(set, 0) //lint:allow hotalloc every caller passes a slab preallocated at setup (sent/tmp: cap+1, rcv: cap) and the protocol keeps len below it before insert
	copy(set[lo+1:], set[lo:])
	set[lo] = x
	return set
}

// delSorted removes x from a sorted slice (no-op if absent).
func delSorted(set []int32, x int32) []int32 {
	for i, v := range set {
		if v == x {
			return append(set[:i], set[i+1:]...) //lint:allow hotalloc shrinking append: the result is one shorter than the input, so the backing array never grows
		}
	}
	return set
}

// worstNotIn returns the largest element of a absent from b (both sorted).
func worstNotIn(a, b []int32) (int32, bool) {
	for i := len(a) - 1; i >= 0; i-- {
		if !containsSorted(b, a[i]) {
			return a[i], true
		}
	}
	return 0, false
}

// bestNotIn returns the smallest element of a absent from b (both sorted).
func bestNotIn(a, b []int32) (int32, bool) {
	for _, x := range a {
		if !containsSorted(b, x) {
			return x, true
		}
	}
	return 0, false
}

func containsSorted(set []int32, x int32) bool {
	for _, v := range set {
		if v == x {
			return true
		}
		if v > x {
			return false
		}
	}
	return false
}
