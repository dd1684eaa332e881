package graph

// UnionFind is a disjoint-set forest with union by rank and path compression.
// The zero value is unusable; create with NewUnionFind.
type UnionFind struct {
	parent []int
	rank   []int8
	count  int // number of disjoint sets
}

// NewUnionFind returns a union-find structure over n singleton sets.
func NewUnionFind(n int) *UnionFind {
	u := &UnionFind{
		parent: make([]int, n),
		rank:   make([]int8, n),
		count:  n,
	}
	for i := range u.parent {
		u.parent[i] = i
	}
	return u
}

// Find returns the canonical representative of x's set.
func (u *UnionFind) Find(x int) int {
	for u.parent[x] != x {
		u.parent[x] = u.parent[u.parent[x]] // path halving
		x = u.parent[x]
	}
	return x
}

// Union merges the sets containing x and y and reports whether a merge
// happened (false if they were already in the same set).
func (u *UnionFind) Union(x, y int) bool {
	rx, ry := u.Find(x), u.Find(y)
	if rx == ry {
		return false
	}
	if u.rank[rx] < u.rank[ry] {
		rx, ry = ry, rx
	}
	u.parent[ry] = rx
	if u.rank[rx] == u.rank[ry] {
		u.rank[rx]++
	}
	u.count--
	return true
}

// Same reports whether x and y belong to the same set.
func (u *UnionFind) Same(x, y int) bool { return u.Find(x) == u.Find(y) }

// Count returns the current number of disjoint sets.
func (u *UnionFind) Count() int { return u.count }

// Sets returns the current partition as member lists, sets ordered by their
// smallest vertex and members ordered by vertex index.
func (u *UnionFind) Sets() [][]int {
	n := len(u.parent)
	// Pass 1: canonical root per vertex, set index per root in first-seen
	// (= smallest member) order, and set sizes.
	root := make([]int32, n)
	setOf := make([]int32, n) // root vertex -> set index + 1
	numSets := 0
	for v := 0; v < n; v++ {
		r := u.Find(v)
		root[v] = int32(r)
		if setOf[r] == 0 {
			numSets++
			setOf[r] = int32(numSets)
		}
	}
	size := make([]int32, numSets)
	for v := 0; v < n; v++ {
		size[setOf[root[v]]-1]++
	}
	// Pass 2: slice one backing array per set and fill in vertex order.
	out := make([][]int, numSets)
	store := make([]int, n)
	pos := 0
	for si := 0; si < numSets; si++ {
		out[si] = store[pos : pos : pos+int(size[si])]
		pos += int(size[si])
	}
	for v := 0; v < n; v++ {
		si := setOf[root[v]] - 1
		out[si] = append(out[si], v)
	}
	return out
}
