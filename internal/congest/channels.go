package congest

import (
	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/shortcut"
)

// This file is the one place the (graph, parts, shortcut) → channel view is
// built. A channel is one logical (part, edge) flow: an edge carries its
// induced part (both endpoints in the same part) plus every part whose
// shortcut borrows it. Every part-wise framework primitive — aggregation
// (AggregateMin), distance relaxation (Relaxer, BatchRelaxer) and their
// sequential oracles — communicates over exactly these channels, so
// congested edges serialize exactly as the congestion parameter predicts.

// inducedPart returns the part both endpoints of edge id belong to, or -1.
func inducedPart(g *graph.Graph, p *partition.Parts, id int) int {
	if g.EdgeRemoved(id) {
		// Churn tombstone: carries no induced channel (and its endpoints
		// are gone, so the part lookup below would misindex).
		return -1
	}
	e := g.Edge(id)
	if pi := p.Of[e.U]; pi != -1 && pi == p.Of[e.V] {
		return pi
	}
	return -1
}

// ChannelMask reports, per edge ID, whether the edge carries at least one
// channel. It is all of the view a sequential relaxation oracle needs
// (graph.RelaxFixedPoint).
func ChannelMask(g *graph.Graph, p *partition.Parts, s *shortcut.Shortcut) []bool {
	mask := make([]bool, g.M())
	for id := range mask {
		mask[id] = inducedPart(g, p, id) != -1 || len(s.EdgeParts(id)) > 0
	}
	return mask
}

// channels is the per-node channel slab the round-driven part-wise
// protocols run over. Node v's ports are the global ports
// portOff[v] … portOff[v+1]-1, in adjacency order; global port q carries
// the channels chOff[q] … chOff[q+1]-1, whose parts are part[chOff[q]:
// chOff[q+1]] (the edge's induced part first, then its borrowing parts in
// part order). Protocol state indexed by channel or by port lives in flat
// slabs over these offsets, so a whole run performs a constant number of
// allocations; a port whose range is empty carries no channel.
type channels struct {
	carries []bool // ChannelMask
	portOff []int32
	chOff   []int32
	part    []int32
}

// newChannels builds the channel view of (g, p, s): each port copies its
// edge's induced part and the shortcut's per-edge part list.
func newChannels(g *graph.Graph, p *partition.Parts, s *shortcut.Shortcut) *channels {
	n := g.N()
	c := &channels{
		carries: make([]bool, g.M()),
		portOff: make([]int32, n+1),
	}
	for v := 0; v < n; v++ {
		c.portOff[v+1] = c.portOff[v] + int32(g.Degree(v))
	}
	c.chOff = make([]int32, 1, c.portOff[n]+1)
	c.part = make([]int32, 0, c.portOff[n])
	for v := 0; v < n; v++ {
		for _, a := range g.Adj(v) {
			lo := len(c.part)
			ip := int32(inducedPart(g, p, a.ID))
			if ip != -1 {
				c.part = append(c.part, ip)
			}
			for _, pi := range s.EdgeParts(a.ID) {
				if pi != ip {
					c.part = append(c.part, pi)
				}
			}
			c.chOff = append(c.chOff, int32(len(c.part)))
			if len(c.part) > lo {
				c.carries[a.ID] = true
			}
		}
	}
	return c
}
