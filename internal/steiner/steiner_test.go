package steiner

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"fpgarouter/internal/graph"
)

// star returns a star graph: center node 0, leaves 1..k with unit spokes.
func star(k int) *graph.Graph {
	g := graph.New(k + 1)
	for i := 1; i <= k; i++ {
		g.AddEdge(0, graph.NodeID(i), 1)
	}
	return g
}

func cacheFor(g *graph.Graph) *graph.SPTCache { return graph.NewSPTCache(g) }

func TestCheckNet(t *testing.T) {
	g := star(3)
	c := cacheFor(g)
	if err := CheckNet(c, nil); err == nil {
		t.Fatal("empty net accepted")
	}
	if err := CheckNet(c, []graph.NodeID{1, 1}); err == nil {
		t.Fatal("duplicate pin accepted")
	}
	if err := CheckNet(c, []graph.NodeID{1, 99}); err == nil {
		t.Fatal("out-of-range pin accepted")
	}
	if err := CheckNet(c, []graph.NodeID{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	// Disconnect leaf 3 and expect ErrNoRoute.
	g2 := star(3)
	g2.SetEnabled(2, false)
	if err := CheckNet(cacheFor(g2), []graph.NodeID{1, 3}); err != ErrNoRoute {
		t.Fatalf("err = %v, want ErrNoRoute", err)
	}
}

func TestDistanceGraph(t *testing.T) {
	g := star(3)
	c := cacheFor(g)
	dg, err := NewDistanceGraph(c, []graph.NodeID{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if dg.G.NumNodes() != 3 || dg.G.NumEdges() != 3 {
		t.Fatalf("distance graph shape %d/%d", dg.G.NumNodes(), dg.G.NumEdges())
	}
	for i := 0; i < dg.G.NumEdges(); i++ {
		if dg.G.Weight(graph.EdgeID(i)) != 2 {
			t.Fatalf("distance = %v, want 2", dg.G.Weight(graph.EdgeID(i)))
		}
	}
	if dg.Index(2) != 1 {
		t.Fatal("Index mapping wrong")
	}
}

func TestKMBStar(t *testing.T) {
	// Terminals = all leaves of a 3-star. Optimal Steiner tree uses the
	// center (cost 3); KMB's MST-of-distance-graph expands spokes and its
	// second MST over the expanded subgraph recovers cost 3 here.
	g := star(3)
	c := cacheFor(g)
	tr, err := KMB(c, []graph.NodeID{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := graph.ValidateTree(g, tr, []graph.NodeID{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if tr.Cost != 3 {
		t.Fatalf("KMB star cost = %v, want 3", tr.Cost)
	}
}

func TestKMBTwoPinsIsShortestPath(t *testing.T) {
	g := graph.New(4)
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 2, 1)
	g.AddEdge(0, 3, 5)
	g.AddEdge(3, 2, 5)
	c := cacheFor(g)
	tr, err := KMB(c, []graph.NodeID{0, 2})
	if err != nil {
		t.Fatal(err)
	}
	if tr.Cost != 2 {
		t.Fatalf("2-pin KMB cost = %v, want 2", tr.Cost)
	}
}

func TestKMBSinglePin(t *testing.T) {
	g := star(2)
	tr, err := KMB(cacheFor(g), []graph.NodeID{1})
	if err != nil || len(tr.Edges) != 0 || tr.Cost != 0 {
		t.Fatalf("single-pin: tr=%+v err=%v", tr, err)
	}
}

func TestKMBNoRoute(t *testing.T) {
	g := graph.New(4)
	g.AddEdge(0, 1, 1)
	g.AddEdge(2, 3, 1)
	if _, err := KMB(cacheFor(g), []graph.NodeID{0, 3}); err != ErrNoRoute {
		t.Fatalf("err = %v", err)
	}
}

// kmbWorstCase builds the classic KMB 2·(1−1/L) instance: a hub node h
// connected to L terminals with spokes of weight 1, and a terminal cycle
// with edges of weight 2−ε. KMB (working on the distance graph) picks the
// cycle edges, cost (L−1)(2−ε); optimal uses the hub, cost L.
func kmbWorstCase(l int, eps float64) (*graph.Graph, []graph.NodeID) {
	g := graph.New(l + 1)
	hub := graph.NodeID(l)
	net := make([]graph.NodeID, l)
	for i := 0; i < l; i++ {
		net[i] = graph.NodeID(i)
		g.AddEdge(graph.NodeID(i), hub, 1)
	}
	for i := 0; i < l; i++ {
		g.AddEdge(graph.NodeID(i), graph.NodeID((i+1)%l), 2-eps)
	}
	return g, net
}

func TestKMBWithinTwoTimesOptimal(t *testing.T) {
	g, net := kmbWorstCase(6, 0.01)
	c := cacheFor(g)
	tr, err := KMB(c, net)
	if err != nil {
		t.Fatal(err)
	}
	opt, err := ExactCost(c, net)
	if err != nil {
		t.Fatal(err)
	}
	if opt != 6 {
		t.Fatalf("optimal = %v, want 6 (hub)", opt)
	}
	if tr.Cost > 2*opt+1e-9 {
		t.Fatalf("KMB cost %v exceeds 2×OPT %v", tr.Cost, 2*opt)
	}
	// And this instance really is (near) worst-case for KMB.
	if tr.Cost < 1.5*opt {
		t.Fatalf("KMB cost %v unexpectedly good; gadget broken?", tr.Cost)
	}
}

func TestZELStar(t *testing.T) {
	g := star(3)
	c := cacheFor(g)
	tr, err := ZEL(c, []graph.NodeID{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := graph.ValidateTree(g, tr, []graph.NodeID{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if tr.Cost != 3 {
		t.Fatalf("ZEL star cost = %v, want 3", tr.Cost)
	}
}

func TestZELBeatsKMBOnWorstCase(t *testing.T) {
	// On the hub gadget ZEL's triple contraction finds the hub.
	g, net := kmbWorstCase(6, 0.01)
	c := cacheFor(g)
	z, err := ZEL(c, net)
	if err != nil {
		t.Fatal(err)
	}
	k, err := KMB(c, net)
	if err != nil {
		t.Fatal(err)
	}
	if z.Cost > k.Cost+1e-9 {
		t.Fatalf("ZEL %v worse than KMB %v", z.Cost, k.Cost)
	}
	if z.Cost > (11.0/6.0)*6+1e-9 {
		t.Fatalf("ZEL cost %v exceeds 11/6 × OPT", z.Cost)
	}
}

func TestZELTwoPinFallsBackToKMB(t *testing.T) {
	g := star(2)
	c := cacheFor(g)
	tr, err := ZEL(c, []graph.NodeID{1, 2})
	if err != nil || tr.Cost != 2 {
		t.Fatalf("ZEL 2-pin: %v %v", tr, err)
	}
}

func TestExactSmall(t *testing.T) {
	// 2×3 grid, terminals at three corners; optimal Steiner tree cost 4
	// (an L through the middle column is not needed: spanning tree through
	// edges suffices).
	g := graph.NewGrid(3, 2, 1)
	c := cacheFor(g.Graph)
	net := []graph.NodeID{g.Node(0, 0), g.Node(2, 0), g.Node(0, 1)}
	tr, err := Exact(c, net)
	if err != nil {
		t.Fatal(err)
	}
	if err := graph.ValidateTree(g.Graph, tr, net); err != nil {
		t.Fatal(err)
	}
	if tr.Cost != 3 {
		t.Fatalf("exact cost = %v, want 3", tr.Cost)
	}
}

func TestExactUsesSteinerPoint(t *testing.T) {
	g := star(4)
	c := cacheFor(g)
	net := []graph.NodeID{1, 2, 3, 4}
	tr, err := Exact(c, net)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Cost != 4 {
		t.Fatalf("exact star cost = %v, want 4 (through center)", tr.Cost)
	}
}

func TestExactTooLarge(t *testing.T) {
	g := star(MaxExactTerminals + 1)
	net := make([]graph.NodeID, MaxExactTerminals+1)
	for i := range net {
		net[i] = graph.NodeID(i + 1)
	}
	if _, err := Exact(cacheFor(g), net); err != ErrTooLarge {
		t.Fatalf("err = %v, want ErrTooLarge", err)
	}
}

func TestExactMatchesBruteForceOnTrees(t *testing.T) {
	// On a tree graph the Steiner minimal tree is the union of pairwise
	// paths: its cost equals the size of the Steiner closure, which we can
	// compute independently via pruning the whole tree.
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 15; trial++ {
		n := 5 + rng.Intn(10)
		g := graph.New(n)
		for i := 1; i < n; i++ {
			g.AddEdge(graph.NodeID(i), graph.NodeID(rng.Intn(i)), 1+rng.Float64()*4)
		}
		k := 2 + rng.Intn(4)
		net := graph.RandomNet(rng, g, k)
		c := cacheFor(g)
		got, err := ExactCost(c, net)
		if err != nil {
			t.Fatal(err)
		}
		all := make([]graph.EdgeID, g.NumEdges())
		for i := range all {
			all[i] = graph.EdgeID(i)
		}
		want := graph.PruneTree(g, all, net, c.NodeSet()).Cost
		if math.Abs(got-want) > 1e-9 {
			t.Fatalf("trial %d: exact %v != pruned-tree %v", trial, got, want)
		}
	}
}

// Property: heuristic solutions are valid trees spanning the net, and
// KMB ≤ 2×OPT, ZEL ≤ 11/6×OPT on random small instances.
func TestQuickHeuristicBounds(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(16)
		g := graph.RandomConnected(rng, n, n*2, 6)
		k := 2 + rng.Intn(4)
		if k > n {
			k = n
		}
		net := graph.RandomNet(rng, g, k)
		c := cacheFor(g)
		opt, err := ExactCost(c, net)
		if err != nil {
			return false
		}
		for _, h := range []Heuristic{KMB, ZEL} {
			tr, err := h(c, net)
			if err != nil {
				return false
			}
			if graph.ValidateTree(g, tr, net) != nil {
				return false
			}
			if tr.Cost < opt-1e-9 {
				return false // heuristic beat the exact solver: bug
			}
		}
		kmb, _ := KMB(c, net)
		zel, _ := ZEL(c, net)
		if kmb.Cost > 2*opt+1e-9 || zel.Cost > (11.0/6.0)*opt+1e-9 {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestSortWeightedMatchesStdlib: the Kruskal key sort orders by (weight,
// ID) exactly like the standard library's sort, across sizes that exercise
// the insertion-sort runs, the partitioning and the depth fallback, with
// heavily tied weights.
func TestSortWeightedMatchesStdlib(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 500; trial++ {
		n := rng.Intn(400)
		s := make([]weightedEdge, n)
		for i, id := range rng.Perm(n) {
			s[i] = weightedEdge{float64(rng.Intn(1 + trial%7)), graph.EdgeID(id)}
		}
		if trial%5 == 0 {
			slices.SortFunc(s, func(a, b weightedEdge) int { return int(b.id) - int(a.id) })
		}
		want := slices.Clone(s)
		slices.SortFunc(want, func(a, b weightedEdge) int {
			if a.less(b) {
				return -1
			}
			return 1
		})
		got := slices.Clone(s)
		if trial%3 == 0 {
			quickWeighted(got, 1) // force the depth fallback early
		} else {
			sortWeighted(got)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("trial %d (n=%d): order differs from the standard sort", trial, n)
		}
	}
}
