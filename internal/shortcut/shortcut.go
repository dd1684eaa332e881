// Package shortcut implements tree-restricted low-congestion shortcuts
// (paper Definitions 9-13): the Shortcut object, exact quality measurement
// (congestion, block parameter, quality q(d) = b·d + c), and the
// constructors — the flooding construction (Construct, ConstructPrio,
// ConstructAuto, and FromFloodState for a converged flood state), the
// oblivious tree-claiming construction in the spirit of [HIZ16a]
// (Oblivious, ObliviousAuto), the treewidth-witness construction realizing
// Theorem 5 ([HIZ16b], FromTreewidth), explicit per-part assignments (New,
// NewNormalized, Empty), and incremental repair under churn (Maintain).
//
// A shortcut is stored the way the paper's framework reasons about it: per
// tree edge, the sorted IDs of the parts that use it, in one int32 CSR
// indexed by the edge's child vertex — the flooding state's own indexing.
// Congestion is the longest list, and block counts come from one bottom-up
// walk of T over the lists. Per-part edge lists are a derived view
// (PartEdges); the per-edge lists are read with EdgeParts.
package shortcut

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/graph"
	"repro/internal/partition"
)

// Shortcut assigns each part a set of tree edges (its Hᵢ). All edges belong
// to the spanning tree T (Definition 10: T-restricted).
type Shortcut struct {
	G *graph.Graph
	T *graph.Tree
	P *partition.Parts
	// The parts using v's parent edge are parts[off[v]:off[v+1]], sorted
	// ascending; the root's list is empty.
	off   []int32
	parts []int32
}

// New wraps and validates a per-part shortcut assignment: t and p must
// belong to g (by identity — a tree of a different graph would silently
// interpret g's edge IDs against the wrong edge set), every assigned edge
// must be an edge of T, no part may be empty, and each part's list must be
// free of duplicates. Constructions that legitimately merge overlapping
// edge sets should use NewNormalized.
func New(g *graph.Graph, t *graph.Tree, p *partition.Parts, edges [][]int) (*Shortcut, error) {
	return build(g, t, p, edges, false)
}

// NewNormalized is New for merge-style constructions: duplicate edge IDs
// within a part's list are deduplicated silently instead of rejected. All
// other validation (graph/tree/part identity, tree membership, non-empty
// parts) is identical to New.
func NewNormalized(g *graph.Graph, t *graph.Tree, p *partition.Parts, edges [][]int) (*Shortcut, error) {
	return build(g, t, p, edges, true)
}

func build(g *graph.Graph, t *graph.Tree, p *partition.Parts, edges [][]int, dedup bool) (*Shortcut, error) {
	if err := checkOwners(g, t, p); err != nil {
		return nil, err
	}
	if len(edges) != p.NumParts() {
		return nil, fmt.Errorf("shortcut: %d edge sets for %d parts", len(edges), p.NumParts())
	}
	// Validate each part's list and count its edges per child vertex, then
	// fill the per-edge lists in ascending part order, which leaves every
	// list sorted.
	s := &Shortcut{G: g, T: t, P: p, off: make([]int32, g.N()+1)}
	lists := make([][]int, len(edges))
	for i, ids := range edges {
		for _, id := range ids {
			if id < 0 || id >= g.M() {
				return nil, fmt.Errorf("shortcut: part %d has invalid edge %d", i, id)
			}
			if !t.IsTreeEdge(id) {
				return nil, fmt.Errorf("shortcut: part %d edge %d is not a tree edge", i, id)
			}
		}
		out := sortedDedup(ids)
		if !dedup && len(out) != len(ids) {
			return nil, fmt.Errorf("shortcut: part %d has %d duplicate edge IDs", i, len(ids)-len(out))
		}
		for _, id := range out {
			s.off[s.child(id)+1]++
		}
		lists[i] = out
	}
	for v := 0; v < g.N(); v++ {
		s.off[v+1] += s.off[v]
	}
	s.parts = make([]int32, s.off[g.N()])
	cur := slices.Clone(s.off[:g.N()])
	for i, ids := range lists {
		for _, id := range ids {
			c := s.child(id)
			s.parts[cur[c]] = int32(i)
			cur[c]++
		}
	}
	return s, nil
}

// checkOwners enforces that t and p belong to g and that no part is empty.
func checkOwners(g *graph.Graph, t *graph.Tree, p *partition.Parts) error {
	if t.G != g {
		return fmt.Errorf("shortcut: tree belongs to a different graph")
	}
	if p.G != g {
		return fmt.Errorf("shortcut: parts belong to a different graph")
	}
	for i, set := range p.Sets {
		if len(set) == 0 {
			return fmt.Errorf("shortcut: part %d is empty", i)
		}
	}
	return nil
}

// child returns the child endpoint of tree edge id, or -1 if id is not a
// live tree edge.
func (s *Shortcut) child(id int) int {
	if s.G.EdgeRemoved(id) {
		return -1
	}
	e := s.G.Edge(id)
	switch id {
	case s.T.ParentEdge[e.U]:
		return e.U
	case s.T.ParentEdge[e.V]:
		return e.V
	}
	return -1
}

// at returns the parts using v's parent edge.
func (s *Shortcut) at(v int) []int32 {
	return s.parts[s.off[v]:s.off[v+1]:s.off[v+1]]
}

// EdgeParts returns the sorted IDs of the parts whose shortcut uses edge id
// (nil for a non-tree edge). The slice is shared with the shortcut and must
// not be modified.
func (s *Shortcut) EdgeParts(id int) []int32 {
	if c := s.child(id); c != -1 {
		return s.at(c)
	}
	return nil
}

// PartEdges returns each part's shortcut Hᵢ as sorted tree edge IDs: the
// per-part view of the assignment, freshly allocated on every call.
func (s *Shortcut) PartEdges() [][]int {
	out := s.transpose()
	for _, ids := range out {
		sort.Ints(ids)
	}
	return out
}

// transpose returns each part's shortcut edges in vertex order: the store
// transposed into per-part lists carved from one slab.
func (s *Shortcut) transpose() [][]int {
	np := s.P.NumParts()
	off := make([]int, np+1)
	for _, i := range s.parts {
		off[i+1]++
	}
	for i := 0; i < np; i++ {
		off[i+1] += off[i]
	}
	slab := make([]int, len(s.parts))
	cur := slices.Clone(off[:np])
	for v := 0; v < s.G.N(); v++ {
		for _, i := range s.at(v) {
			slab[cur[i]] = s.T.ParentEdge[v]
			cur[i]++
		}
	}
	out := make([][]int, np)
	for i := range out {
		out[i] = slab[off[i]:off[i+1]:off[i+1]]
	}
	return out
}

// sortedDedup returns a fresh sorted slice of the distinct values of ids.
func sortedDedup(ids []int) []int {
	out := make([]int, len(ids))
	copy(out, ids)
	sort.Ints(out)
	w := 0
	for r, id := range out {
		if r == 0 || id != out[w-1] {
			out[w] = id
			w++
		}
	}
	return out[:w]
}

// Empty returns the all-empty shortcut (every part gets no help).
func Empty(g *graph.Graph, t *graph.Tree, p *partition.Parts) *Shortcut {
	s, err := New(g, t, p, make([][]int, p.NumParts()))
	if err != nil {
		panic(fmt.Sprintf("shortcut.Empty: %v", err))
	}
	return s
}

// Measurement summarizes a shortcut's quality (Definitions 11-13).
type Measurement struct {
	Congestion   int   // max over edges of #parts using the edge
	MaxBlocks    int   // block parameter b: max over parts of block count
	Blocks       []int // per part
	TreeDiameter int   // 2 * height of T (upper bound used for d_T)
	Quality      int   // b * d_T + c
}

// Measure computes congestion, block parameters, and quality exactly.
// Blocks[i] counts the block components of part i: connected components
// of (V, Hᵢ) containing at least one vertex of the part (Definition 12; a
// part vertex not covered by Hᵢ is a singleton block).
func (s *Shortcut) Measure() Measurement {
	m := Measurement{TreeDiameter: 2 * s.T.Height()}
	if m.TreeDiameter == 0 {
		m.TreeDiameter = 1
	}
	for v := 0; v < s.G.N(); v++ {
		if c := int(s.off[v+1] - s.off[v]); c > m.Congestion {
			m.Congestion = c
		}
	}
	m.Blocks = s.blocks(nil)
	for _, b := range m.Blocks {
		if b > m.MaxBlocks {
			m.MaxBlocks = b
		}
	}
	m.Quality = m.MaxBlocks*m.TreeDiameter + m.Congestion
	return m
}

// BlockTops returns, per vertex, the sorted list of parts for which the
// vertex is the topmost point of a block of (V, Hᵢ) — the per-vertex
// decomposition of Measure's block counts into locally decidable
// indicators, so the per-part sums always equal Measurement.Blocks. A
// vertex v tops a block of part i iff i is absent from the list of v's
// parent edge (no H-edge continues upward) while the component below
// reaches a member of part i: v itself is one, or a child's edge carries i
// and its component does. The pipelined block-count convergecast of the
// cap search streams exactly these indicators to the root.
//
// Each indicator depends only on state the construction protocol already
// holds at v (its own forwarded set, its children's admitted sets, and one
// touch bit per admitted part carried up with them), so a deployed network
// computes BlockTops with no extra rounds.
func (s *Shortcut) BlockTops() [][]int32 {
	tops := make([][]int32, s.G.N())
	s.blocks(tops)
	return tops
}

// State bits of a part at the vertex blocks is visiting.
const (
	stUp      = 1 // the part's list continues over the vertex's parent edge
	stTouched = 2 // the part's component at the vertex reaches a member
)

// blocks is the one bottom-up walk of T behind Measure and BlockTops: it
// returns the per-part block counts and, when tops is non-nil, records each
// block at its top vertex. Every component of (V, Hᵢ) is a subtree of T
// with one top; touch[k] carries, per list slot, whether the component
// below that edge reaches a member of the slot's part, and a component is
// counted at its top when it does.
func (s *Shortcut) blocks(tops [][]int32) []int {
	out := make([]int, s.P.NumParts())
	touch := make([]bool, len(s.parts))
	st := s.G.AcquireScratch() // part -> state bits at v
	defer s.G.ReleaseScratch(st)
	for oi := len(s.T.Order) - 1; oi >= 0; oi-- {
		v := s.T.Order[oi]
		own := s.P.Of[v]
		if len(s.T.Children[v]) == 0 {
			// A leaf's components reach a member only through v itself.
			stops := own != -1
			for k := s.off[v]; k < s.off[v+1]; k++ {
				touch[k] = int(s.parts[k]) == own
				stops = stops && !touch[k]
			}
			if stops {
				countTop(out, tops, v, own)
			}
			continue
		}
		st.Reset()
		for _, i := range s.at(v) {
			st.Set(int(i), stUp)
		}
		if own != -1 {
			arrive(st, out, tops, v, own)
		}
		for _, c := range s.T.Children[v] {
			for k := s.off[c]; k < s.off[c+1]; k++ {
				if touch[k] {
					arrive(st, out, tops, v, int(s.parts[k]))
				}
			}
		}
		for k := s.off[v]; k < s.off[v+1]; k++ {
			touch[k] = st.GetOr(int(s.parts[k]), 0)&stTouched != 0
		}
		if tops != nil {
			slices.Sort(tops[v])
		}
	}
	return out
}

// arrive records that a touched component of part i reaches v; the first
// arrival of a part that stops at v counts its block.
func arrive(st *graph.Scratch, out []int, tops [][]int32, v, i int) {
	b := st.GetOr(i, 0)
	if b&(stUp|stTouched) == 0 {
		countTop(out, tops, v, i)
	}
	st.Set(i, b|stTouched)
}

// countTop counts one block of part i topped at v.
func countTop(out []int, tops [][]int32, v, i int) {
	out[i]++
	if tops != nil {
		tops[v] = append(tops[v], int32(i))
	}
}

// AugmentedDiameter returns the hop diameter of G[Pᵢ] + Hᵢ — the subgraph
// induced by the part plus its shortcut edges (with their endpoints). The
// framework's promise is that this is O(bᵢ · d_T).
//
// An empty part or a disconnected augmented subgraph (shortcut edges that
// never touch the part, or a part that was built unchecked and is itself
// disconnected) is an explicit error: before this check the empty case
// returned diameter 0, masquerading as a perfectly-helped part.
func (s *Shortcut) AugmentedDiameter(i int) (int, error) {
	if err := s.checkPart(i); err != nil {
		return 0, err
	}
	a := s.augment(i, s.transpose()[i])
	diam := 0
	for src := int32(0); src < int32(len(a.off)-1); src++ {
		ecc, ok := a.ecc(src)
		if !ok {
			return 0, fmt.Errorf("shortcut: augmented subgraph of part %d is disconnected: %w", i, graph.ErrDisconnected)
		}
		diam = max(diam, ecc)
	}
	return diam, nil
}

// AugmentedEcc returns the hop eccentricity of part i's minimum vertex in
// the augmented subgraph G[Pᵢ] + Hᵢ. This is the cap search's per-part
// quality probe: one BFS instead of AugmentedDiameter's all-pairs sweep,
// and ecc ≤ diameter ≤ 2·ecc, so it tracks the quantity the framework
// bounds while staying cheap enough to evaluate per doubling guess. The
// same empty-part and disconnection cases are explicit errors.
func (s *Shortcut) AugmentedEcc(i int) (int, error) {
	if err := s.checkPart(i); err != nil {
		return 0, err
	}
	return s.augmentedEcc(i, s.transpose()[i])
}

// AugmentedEccs returns AugmentedEcc for every part, transposing the
// assignment into per-part edge lists once instead of once per part.
func (s *Shortcut) AugmentedEccs() ([]int, error) {
	out := make([]int, s.P.NumParts())
	for i, ids := range s.transpose() {
		if err := s.checkPart(i); err != nil {
			return nil, err
		}
		ecc, err := s.augmentedEcc(i, ids)
		if err != nil {
			return nil, err
		}
		out[i] = ecc
	}
	return out, nil
}

func (s *Shortcut) checkPart(i int) error {
	if i < 0 || i >= s.P.NumParts() {
		return fmt.Errorf("shortcut: part %d out of range for %d parts", i, s.P.NumParts())
	}
	if len(s.P.Sets[i]) == 0 {
		return fmt.Errorf("shortcut: part %d is empty, augmented diameter undefined", i)
	}
	return nil
}

func (s *Shortcut) augmentedEcc(i int, ids []int) (int, error) {
	ecc, ok := s.augment(i, ids).ecc(0)
	if !ok {
		return 0, fmt.Errorf("shortcut: augmented subgraph of part %d is disconnected: %w", i, graph.ErrDisconnected)
	}
	return ecc, nil
}

// augmented is G[Pᵢ] + Hᵢ as a flat local CSR: local vertex l's neighbours
// are dst[off[l]:off[l+1]]. Local vertex 0 is the part's minimum vertex.
// The probes never materialize a *graph.Graph: the cap search evaluates
// them parts × guesses times, and per-probe adjacency-list construction
// dominated the whole search at scale.
type augmented struct {
	off, dst []int32
}

// augment assembles part i's augmented subgraph from its shortcut edges
// ids: the part's members first, then the shortcut endpoints outside it;
// arcs are the induced part arcs at both endpoints plus both directions of
// each shortcut edge, laid out with one counting pass.
func (s *Shortcut) augment(i int, ids []int) augmented {
	g := s.G
	in := g.AcquireScratch() // vertex -> local index
	defer g.ReleaseScratch(in)
	partIn := g.AcquireScratch()
	defer g.ReleaseScratch(partIn)
	verts := make([]int, 0, len(s.P.Sets[i])+2*len(ids))
	for _, v := range s.P.Sets[i] {
		if in.Visit(v) {
			verts = append(verts, v)
		}
		partIn.Visit(v)
	}
	numPart := len(verts)
	for _, id := range ids {
		e := g.Edge(id)
		if in.Visit(e.U) {
			verts = append(verts, e.U)
		}
		if in.Visit(e.V) {
			verts = append(verts, e.V)
		}
	}
	for li, v := range verts {
		in.Set(v, int32(li))
	}
	nl := len(verts)
	a := augmented{off: make([]int32, nl+1)}
	for _, v := range verts[:numPart] {
		li := in.GetOr(v, -1)
		for _, arc := range g.Adj(v) {
			if partIn.Has(arc.To) {
				a.off[li+1]++
			}
		}
	}
	for _, id := range ids {
		e := g.Edge(id)
		a.off[in.GetOr(e.U, -1)+1]++
		a.off[in.GetOr(e.V, -1)+1]++
	}
	for li := 0; li < nl; li++ {
		a.off[li+1] += a.off[li]
	}
	a.dst = make([]int32, a.off[nl])
	cur := slices.Clone(a.off[:nl])
	for _, v := range verts[:numPart] {
		li := in.GetOr(v, -1)
		for _, arc := range g.Adj(v) {
			if partIn.Has(arc.To) {
				a.dst[cur[li]] = in.GetOr(arc.To, -1)
				cur[li]++
			}
		}
	}
	for _, id := range ids {
		e := g.Edge(id)
		lu, lv := in.GetOr(e.U, -1), in.GetOr(e.V, -1)
		a.dst[cur[lu]] = lv
		cur[lu]++
		a.dst[cur[lv]] = lu
		cur[lv]++
	}
	return a
}

// ecc returns the BFS eccentricity of local vertex src and whether the BFS
// reached every local vertex.
func (a augmented) ecc(src int32) (int, bool) {
	nl := len(a.off) - 1
	dist := make([]int32, nl)
	for li := range dist {
		dist[li] = -1
	}
	queue := make([]int32, 0, nl)
	dist[src] = 0
	queue = append(queue, src)
	ecc := int32(0)
	for qi := 0; qi < len(queue); qi++ {
		u := queue[qi]
		du := dist[u]
		ecc = max(ecc, du)
		for _, w := range a.dst[a.off[u]:a.off[u+1]] {
			if dist[w] == -1 {
				dist[w] = du + 1
				queue = append(queue, w)
			}
		}
	}
	return int(ecc), len(queue) == nl
}
