// Package steiner implements the classical graph Steiner tree heuristics the
// paper builds on and compares against: the KMB heuristic of Kou, Markowsky
// and Berman (performance ratio 2·(1−1/L)) and the ZEL heuristic of
// Zelikovsky (ratio 11/6), plus an exact Dreyfus–Wagner solver used as a
// test oracle and for optimality normalization on small instances.
//
// All heuristics share the signature expected by the IGMST template in
// package core: they take a shortest-paths cache over a frozen graph state
// and a net (first node = source, rest = sinks), and return a Tree over the
// original graph's edge IDs.
package steiner

import (
	"errors"
	"fmt"
	"math/bits"
	"slices"
	"sync"

	"fpgarouter/internal/graph"
)

// ErrNoRoute is returned when a net's pins are not all mutually reachable
// through enabled edges.
var ErrNoRoute = errors.New("steiner: net pins not connected")

// Heuristic is a graph Steiner tree construction: it returns a tree over
// cache.Graph() spanning net. The IGMST template accepts any Heuristic.
type Heuristic func(cache *graph.SPTCache, net []graph.NodeID) (graph.Tree, error)

// CheckNet validates a net: at least one pin, no duplicates, all pins
// mutually reachable in the cache's graph. Returns ErrNoRoute or a
// descriptive error. It runs once per base-heuristic evaluation, so the
// duplicate check uses the cache's pooled node set rather than a per-call
// map; the range check comes first because the set indexes by pin ID.
func CheckNet(cache *graph.SPTCache, net []graph.NodeID) error {
	if len(net) == 0 {
		return errors.New("steiner: empty net")
	}
	n := cache.Graph().NumNodes()
	for _, v := range net {
		if v < 0 || int(v) >= n {
			return fmt.Errorf("steiner: pin %d out of range", v)
		}
	}
	seen := cache.NodeSet()
	for _, v := range net {
		if !seen.Add(v) {
			return fmt.Errorf("steiner: duplicate pin %d", v)
		}
	}
	t := cache.Tree(net[0])
	for _, v := range net[1:] {
		if !t.Reachable(v) {
			return ErrNoRoute
		}
	}
	return nil
}

// DistanceGraph is the complete graph G' over a node subset whose edge
// weights are shortest-path distances in the underlying graph (the first
// step of both KMB and ZEL, and of the DOM arborescence construction).
//
// Index i of Terms corresponds to node i of the complete graph G.
type DistanceGraph struct {
	Terms []graph.NodeID
	G     *graph.Graph
	// pos maps an original node ID to its index in Terms.
	pos map[graph.NodeID]int
}

// NewDistanceGraph builds the distance graph over terms using cached
// shortest-path trees. Returns ErrNoRoute if any pair is disconnected.
func NewDistanceGraph(cache *graph.SPTCache, terms []graph.NodeID) (*DistanceGraph, error) {
	k := len(terms)
	dg := &DistanceGraph{
		Terms: append([]graph.NodeID(nil), terms...),
		G:     graph.New(k),
		pos:   make(map[graph.NodeID]int, k),
	}
	for i, v := range terms {
		dg.pos[v] = i
	}
	// Distances go through the cache's symmetric lookup so that evaluating
	// a candidate Steiner node never forces a Dijkstra rooted at the
	// candidate: the distance to every established terminal is read off
	// that terminal's (already cached) tree.
	for i := 0; i < k; i++ {
		for j := i + 1; j < k; j++ {
			d := cache.Dist(terms[i], terms[j])
			if d == graph.Inf() {
				return nil, ErrNoRoute
			}
			dg.G.AddEdge(graph.NodeID(i), graph.NodeID(j), d)
		}
	}
	return dg, nil
}

// Index returns the distance-graph index of original node v (which must be
// one of Terms).
func (dg *DistanceGraph) Index(v graph.NodeID) int { return dg.pos[v] }

// ExpandEdges translates a set of distance-graph edges into the underlying
// graph's edge IDs by expanding each into its shortest path (deduplicated).
func (dg *DistanceGraph) ExpandEdges(cache *graph.SPTCache, ids []graph.EdgeID) []graph.EdgeID {
	seen := cache.EdgeSet()
	var out []graph.EdgeID
	for _, id := range ids {
		e := dg.G.Edge(id)
		u := dg.Terms[e.U]
		v := dg.Terms[e.V]
		for _, ge := range cache.Path(u, v) {
			if seen.Add(ge) {
				out = append(out, ge)
			}
		}
	}
	return out
}

// localMST computes an MST of the subgraph induced by the given edges of
// the cache's graph (deduplicated) using Kruskal over a compact node
// remapping, so its cost is proportional to the edge set, not to |V(g)|,
// then prunes pendant nodes not in keep (graph.PruneTree). The edge set is
// assumed to induce a connected subgraph (true for unions of shortest paths
// that expand a connected tree). Tie-breaking is by edge ID, deterministic.
//
// This is the hot path of every candidate-Steiner-node evaluation in the
// iterated constructions, which is why dedup and remapping run on the
// cache's pooled epoch sets instead of per-call maps, the Kruskal order
// sorts (weight, ID) pairs with each effective weight read once, the
// union-find and sort buffers live in the caller's pooled s, and the prune
// numbers nodes through the same NodeSet the remapping filled, with no sort
// (see DESIGN.md §5). It acquires the cache's EdgeSet and NodeSet,
// invalidating any the caller still holds.
func localMST(cache *graph.SPTCache, s *kernelScratch, edges []graph.EdgeID, keep []graph.NodeID) graph.Tree {
	g := cache.Graph()
	seen := cache.EdgeSet()
	remap := cache.NodeSet()
	uniq := s.uniq[:0]
	for _, e := range edges {
		if seen.Add(e) {
			// Ordering by the cache's effective weight (base + overlay
			// price, when an overlay is attached) keeps the MST consistent
			// with the searches that produced the edge set; with no overlay
			// this is exactly g.Weight.
			uniq = append(uniq, weightedEdge{cache.EdgeWeight(e), e})
			ge := g.Edge(e)
			remap.Slot(ge.U)
			remap.Slot(ge.V)
		}
	}
	s.uniq = uniq
	sortWeighted(uniq)
	s.uf.Reset(remap.Len())
	mst := s.mst[:0]
	for _, we := range uniq {
		ge := g.Edge(we.id)
		if s.uf.Union(remap.Slot(ge.U), remap.Slot(ge.V)) {
			mst = append(mst, we.id)
		}
	}
	s.mst = mst
	return graph.PruneTree(g, mst, keep, remap)
}

// weightedEdge is one Kruskal sort key: an edge and its effective weight.
type weightedEdge struct {
	w  float64
	id graph.EdgeID
}

// less orders by weight, then by edge ID.
func (a weightedEdge) less(b weightedEdge) bool {
	return a.w < b.w || (a.w == b.w && a.id < b.id)
}

// sortWeighted sorts s by (weight, ID): quicksort with a median-of-three
// pivot down to insertion-sorted runs of 12, falling back to the standard
// library's sort past 2·log2(n) levels so the worst case stays O(n log n).
// Keys are distinct, so any correct sort yields the same order; this one
// exists because the comparison inlines, which the generic sort's
// comparator call does not, and localMST sorts once per evaluation.
func sortWeighted(s []weightedEdge) {
	quickWeighted(s, 2*bits.Len(uint(len(s))))
}

func quickWeighted(s []weightedEdge, depth int) {
	for len(s) > 12 {
		if depth == 0 {
			slices.SortFunc(s, func(a, b weightedEdge) int {
				if a.less(b) {
					return -1
				}
				return 1
			})
			return
		}
		depth--
		// Median of three into s[0], then Hoare partition around it.
		m, h := len(s)/2, len(s)-1
		if s[m].less(s[0]) {
			s[m], s[0] = s[0], s[m]
		}
		if s[h].less(s[m]) {
			s[h], s[m] = s[m], s[h]
			if s[m].less(s[0]) {
				s[m], s[0] = s[0], s[m]
			}
		}
		s[0], s[m] = s[m], s[0]
		p := s[0]
		i, j := 1, h
		for {
			for i <= j && s[i].less(p) {
				i++
			}
			for i <= j && p.less(s[j]) {
				j--
			}
			if i >= j {
				break
			}
			s[i], s[j] = s[j], s[i]
			i++
			j--
		}
		s[0], s[j] = s[j], s[0]
		// Recurse into the smaller side, loop on the larger.
		if j < len(s)-1-j {
			quickWeighted(s[:j], depth)
			s = s[j+1:]
		} else {
			quickWeighted(s[j+1:], depth)
			s = s[:j]
		}
	}
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j].less(s[j-1]); j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// kernelScratch pools the working buffers of one KMB or SPH evaluation —
// the distance-graph Prim state, the expanded path union and localMST's
// sort keys, MST and union-find. PruneTree copies the surviving edges out,
// so nothing returned aliases them.
type kernelScratch struct {
	inTree   []bool
	best     []float64
	bestFrom []int32
	trees    []*graph.SPT
	pairs    [][2]int32
	edges    []graph.EdgeID
	uniq     []weightedEdge
	mst      []graph.EdgeID
	uf       graph.UnionFind
}

var kernelPool = sync.Pool{New: func() any { return new(kernelScratch) }}

// take returns a length-n view of *buf, growing it when needed; the
// contents are stale.
func take[T any](buf *[]T, n int) []T {
	if cap(*buf) < n {
		*buf = make([]T, n)
	}
	*buf = (*buf)[:n]
	return *buf
}

// sortedCopy returns a sorted copy of nodes (determinism helper).
func sortedCopy(nodes []graph.NodeID) []graph.NodeID {
	c := append([]graph.NodeID(nil), nodes...)
	slices.Sort(c)
	return c
}
