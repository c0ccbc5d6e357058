package graph

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func lineGraph(n int) *Graph {
	g := New(n)
	for i := 0; i < n-1; i++ {
		g.AddEdge(NodeID(i), NodeID(i+1), 1)
	}
	return g
}

func TestValidateTreeAccepts(t *testing.T) {
	g := lineGraph(4)
	tr := NewTree(g, []EdgeID{0, 1, 2})
	if err := ValidateTree(g, tr, []NodeID{0, 3}); err != nil {
		t.Fatal(err)
	}
}

func TestValidateTreeRejectsCycle(t *testing.T) {
	g := New(3)
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 2, 1)
	g.AddEdge(2, 0, 1)
	tr := NewTree(g, []EdgeID{0, 1, 2})
	if err := ValidateTree(g, tr, []NodeID{0, 2}); err == nil {
		t.Fatal("cycle not detected")
	}
}

func TestValidateTreeRejectsDuplicateEdge(t *testing.T) {
	g := lineGraph(3)
	tr := Tree{Edges: []EdgeID{0, 0}}
	if err := ValidateTree(g, tr, []NodeID{0, 1}); err == nil {
		t.Fatal("duplicate edge not detected")
	}
}

func TestValidateTreeRejectsUnspanned(t *testing.T) {
	g := lineGraph(4)
	tr := NewTree(g, []EdgeID{0})
	if err := ValidateTree(g, tr, []NodeID{0, 3}); err == nil {
		t.Fatal("unspanned net not detected")
	}
}

func TestValidateTreeSingletonNet(t *testing.T) {
	g := lineGraph(2)
	if err := ValidateTree(g, Tree{}, []NodeID{1}); err != nil {
		t.Fatal(err)
	}
}

func TestValidateTreeRejectsForest(t *testing.T) {
	// Two disjoint edges spanning the net's two components would be a
	// forest, not a tree; the net nodes are connected though. Construct:
	// net {0,1}, edges {0-1, 2-3}: net connected but extra component.
	g := New(4)
	g.AddEdge(0, 1, 1)
	g.AddEdge(2, 3, 1)
	tr := NewTree(g, []EdgeID{0, 1})
	if err := ValidateTree(g, tr, []NodeID{0, 1}); err == nil {
		t.Fatal("forest not detected")
	}
}

func TestTreeDistsAndMaxPathlength(t *testing.T) {
	g := New(4)
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 2, 2)
	g.AddEdge(1, 3, 5)
	tr := NewTree(g, []EdgeID{0, 1, 2})
	d := TreeDists(g, tr, 0)
	if d[2] != 3 || d[3] != 6 {
		t.Fatalf("tree dists = %v", d)
	}
	if mp := MaxPathlength(g, tr, 0, []NodeID{2, 3}); mp != 6 {
		t.Fatalf("max pathlength = %v", mp)
	}
}

func TestPruneTreeRemovesPendantChains(t *testing.T) {
	// Star with a dangling chain: keep {0,1}, prune chain 2-3-4.
	g := New(5)
	e01 := g.AddEdge(0, 1, 1)
	e12 := g.AddEdge(1, 2, 1)
	e23 := g.AddEdge(2, 3, 1)
	e34 := g.AddEdge(3, 4, 1)
	pruned := PruneTree(g, []EdgeID{e01, e12, e23, e34}, []NodeID{0, 1}, NewDijkstraScratch().NodeSet(g.NumNodes()))
	if len(pruned.Edges) != 1 || pruned.Edges[0] != e01 {
		t.Fatalf("pruned edges = %v", pruned.Edges)
	}
	if pruned.Cost != 1 {
		t.Fatalf("pruned cost = %v", pruned.Cost)
	}
}

func TestPruneTreeKeepsSteinerJunctions(t *testing.T) {
	// Node 1 is a non-net junction of degree 3; it must survive pruning.
	g := New(4)
	e01 := g.AddEdge(0, 1, 1)
	e12 := g.AddEdge(1, 2, 1)
	e13 := g.AddEdge(1, 3, 1)
	pruned := PruneTree(g, []EdgeID{e01, e12, e13}, []NodeID{0, 2, 3}, NewDijkstraScratch().NodeSet(g.NumNodes()))
	if len(pruned.Edges) != 3 {
		t.Fatalf("junction wrongly pruned: %v", pruned.Edges)
	}
}

func TestSubgraph(t *testing.T) {
	g := New(4)
	g.AddEdge(0, 1, 1)
	e12 := g.AddEdge(1, 2, 2)
	e23 := g.AddEdge(2, 3, 3)
	sub, back := Subgraph(g, []EdgeID{e12, e23, e12}) // duplicate collapses
	if sub.NumEdges() != 2 {
		t.Fatalf("subgraph edges = %d, want 2", sub.NumEdges())
	}
	if back[0] != e12 || back[1] != e23 {
		t.Fatalf("back mapping = %v", back)
	}
	if sub.Weight(0) != 2 {
		t.Fatal("weights not carried over")
	}
}

// Property: for random connected graphs, the MST is a valid spanning tree
// and Prim/Kruskal agree; Dijkstra tree paths match reported distances.
func TestQuickMSTAndDijkstraProperties(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(25)
		g := RandomConnected(rng, n, n*2, 7)
		mst, err := g.PrimMST(0)
		if err != nil {
			return false
		}
		all := make([]NodeID, n)
		for i := range all {
			all[i] = NodeID(i)
		}
		if err := ValidateTree(g, NewTree(g, mst), all); err != nil {
			return false
		}
		kr, err := g.KruskalMST()
		if err != nil || math.Abs(g.TotalWeight(kr)-g.TotalWeight(mst)) > 1e-9 {
			return false
		}
		spt := g.Dijkstra(0)
		for v := 1; v < n; v++ {
			p := spt.PathTo(NodeID(v))
			if math.Abs(g.TotalWeight(p)-spt.Dist[v]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
