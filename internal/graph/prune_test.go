package graph

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// pruneTreeSorted is the sort-based PruneTree kept as the test oracle: it
// numbers nodes by sorting (endpoint, slot)-packed keys, so local IDs come
// out in ascending node order, independent of any NodeSet.
func pruneTreeSorted(g *Graph, edges []EdgeID, keep []NodeID) Tree {
	if len(edges) == 0 {
		return NewTree(g, edges)
	}
	m := len(edges)
	keys := make([]uint64, 2*m)
	for i, id := range edges {
		keys[2*i] = uint64(uint32(g.eu[id]))<<32 | uint64(uint32(2*i))
		keys[2*i+1] = uint64(uint32(g.ev[id]))<<32 | uint64(uint32(2*i+1))
	}
	slices.Sort(keys)
	lu := make([]int32, m)
	lv := make([]int32, m)
	var nodes []NodeID
	for _, k := range keys {
		if node := NodeID(uint32(k >> 32)); len(nodes) == 0 || nodes[len(nodes)-1] != node {
			nodes = append(nodes, node)
		}
		n := int32(len(nodes)) - 1
		if slot := uint32(k); slot&1 == 0 {
			lu[slot>>1] = n
		} else {
			lv[slot>>1] = n
		}
	}
	n := len(nodes)
	deg := make([]int32, n)
	adj := make([][]halfEdge, n)
	for i := range lu {
		deg[lu[i]]++
		deg[lv[i]]++
		adj[lu[i]] = append(adj[lu[i]], halfEdge{int32(i), lv[i]})
		adj[lv[i]] = append(adj[lv[i]], halfEdge{int32(i), lu[i]})
	}
	keepSet := make([]bool, n)
	for _, v := range keep {
		if i, ok := slices.BinarySearch(nodes, v); ok {
			keepSet[i] = true
		}
	}
	alive := make([]bool, m)
	for i := range alive {
		alive[i] = true
	}
	var queue []int32
	for v := int32(0); v < int32(n); v++ {
		if deg[v] == 1 && !keepSet[v] {
			queue = append(queue, v)
		}
	}
	for qi := 0; qi < len(queue); qi++ {
		v := queue[qi]
		if deg[v] != 1 || keepSet[v] {
			continue
		}
		for _, h := range adj[v] {
			if !alive[h.pos] {
				continue
			}
			alive[h.pos] = false
			deg[v]--
			deg[h.other]--
			if deg[h.other] == 1 && !keepSet[h.other] {
				queue = append(queue, h.other)
			}
		}
	}
	out := make([]EdgeID, 0, m)
	for i, id := range edges {
		if alive[i] {
			out = append(out, id)
		}
	}
	return NewTree(g, out)
}

// TestPruneTreeMatchesSortedOracle: the NodeSet-numbered PruneTree returns
// the sort-numbered oracle's edges, in the same order, with the same cost
// bits — on random spanning trees, on edge sets with cycles, and whether
// the NodeSet arrives empty, pre-filled with the endpoints (as KMB passes
// it) or pre-filled with unrelated nodes.
func TestPruneTreeMatchesSortedOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	scr := NewDijkstraScratch()
	for trial := 0; trial < 400; trial++ {
		n := 5 + rng.Intn(60)
		g := RandomConnected(rng, n, n+rng.Intn(3*n), 10)
		var edges []EdgeID
		if trial%2 == 0 {
			// A random spanning tree (Kruskal over shuffled edges).
			uf := NewUnionFind(n)
			for _, i := range rng.Perm(g.NumEdges()) {
				e := g.Edge(EdgeID(i))
				if uf.Union(e.U, e.V) {
					edges = append(edges, EdgeID(i))
				}
			}
		} else {
			// An arbitrary edge subset, cycles and isolated pieces included.
			for _, i := range rng.Perm(g.NumEdges())[:1+rng.Intn(g.NumEdges())] {
				edges = append(edges, EdgeID(i))
			}
		}
		keep := make([]NodeID, 1+rng.Intn(6))
		for i := range keep {
			keep[i] = NodeID(rng.Intn(n))
		}
		want := pruneTreeSorted(g, edges, keep)
		for mode := 0; mode < 3; mode++ {
			ns := scr.NodeSet(n)
			switch mode {
			case 1:
				for _, id := range edges {
					e := g.Edge(id)
					ns.Add(e.V)
					ns.Add(e.U)
				}
			case 2:
				for _, v := range rng.Perm(n)[:rng.Intn(n)] {
					ns.Add(NodeID(v))
				}
			}
			got := PruneTree(g, edges, keep, ns)
			if !slices.Equal(got.Edges, want.Edges) {
				t.Fatalf("trial %d mode %d: edges %v, oracle %v", trial, mode, got.Edges, want.Edges)
			}
			if math.Float64bits(got.Cost) != math.Float64bits(want.Cost) {
				t.Fatalf("trial %d mode %d: cost %v, oracle %v", trial, mode, got.Cost, want.Cost)
			}
		}
	}
}
