package graph

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// gridBounds builds the exact CoordBounds for a GridGraph: node (x, y) at
// coordinate (x, y). With unit weights the Manhattan bound is tight; with
// weights ≥ 1 it stays admissible and consistent.
func gridBounds(g *GridGraph) *CoordBounds {
	b := &CoordBounds{X: make([]float64, g.NumNodes()), Y: make([]float64, g.NumNodes())}
	for v := 0; v < g.NumNodes(); v++ {
		x, y := g.Coords(NodeID(v))
		b.X[v], b.Y[v] = float64(x), float64(y)
	}
	return b
}

// Property: on grids with random weights ≥ 1, random disables and random
// endpoints, point-to-point A* (DijkstraWithinBounded toward one goal)
// returns a goal distance bit-identical to Dijkstra's, its path cost
// equals that distance, and it settles no more nodes.
func TestQuickAStarExactOnGrids(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		w, h := 3+rng.Intn(10), 3+rng.Intn(10)
		g := NewGrid(w, h, 1)
		b := gridBounds(g)
		for i := 0; i < g.NumEdges(); i++ {
			if rng.Intn(3) == 0 {
				g.SetWeight(EdgeID(i), 1+rng.Float64()*4)
			}
			if rng.Intn(8) == 0 {
				g.SetEnabled(EdgeID(i), false)
			}
		}
		src := NodeID(rng.Intn(g.NumNodes()))
		goal := NodeID(rng.Intn(g.NumNodes()))
		s1, s2 := NewDijkstraScratch(), NewDijkstraScratch()
		ref := g.Graph.DijkstraWithinScratch(s1, src, []NodeID{goal})
		ast := g.Graph.DijkstraWithinBounded(s2, src, []NodeID{goal}, b)
		if ast.Dist[goal] != ref.Dist[goal] {
			t.Logf("seed %d: A* dist %v, dijkstra %v", seed, ast.Dist[goal], ref.Dist[goal])
			return false
		}
		if ast.Reachable(goal) {
			p := ast.PathTo(goal)
			if math.Abs(g.TotalWeight(p)-ast.Dist[goal]) > 1e-9 {
				t.Logf("seed %d: path cost %v vs dist %v", seed, g.TotalWeight(p), ast.Dist[goal])
				return false
			}
		}
		if s2.Settled > s1.Settled {
			t.Logf("seed %d: A* settled %d > dijkstra %d", seed, s2.Settled, s1.Settled)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: DijkstraWithinBounded reports exactly DijkstraWithinScratch's
// distances on every stop node — including heavily disabled graphs where
// parts of the stop set are unreachable — and unsettled nodes read
// unreachable, never stale.
func TestQuickDijkstraWithinBoundedExact(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		w, h := 3+rng.Intn(8), 3+rng.Intn(8)
		g := NewGrid(w, h, 1)
		b := gridBounds(g)
		// Disable aggressively: about half the edges, fragmenting the grid.
		for i := 0; i < g.NumEdges(); i++ {
			if rng.Intn(2) == 0 {
				g.SetEnabled(EdgeID(i), false)
			}
		}
		src := NodeID(rng.Intn(g.NumNodes()))
		stop := RandomNet(rng, g.Graph, 1+rng.Intn(g.NumNodes()/2))
		ref := g.Graph.DijkstraWithinScratch(nil, src, stop)
		got := g.Graph.DijkstraWithinBounded(nil, src, stop, b)
		for _, v := range stop {
			if math.IsInf(ref.Dist[v], 1) != math.IsInf(got.Dist[v], 1) {
				t.Logf("seed %d: node %d reachability differs", seed, v)
				return false
			}
			if got.Dist[v] != ref.Dist[v] {
				t.Logf("seed %d: node %d dist %v vs %v", seed, v, got.Dist[v], ref.Dist[v])
				return false
			}
			if got.Reachable(v) {
				p := got.PathTo(v)
				if math.Abs(g.TotalWeight(p)-got.Dist[v]) > 1e-9 {
					return false
				}
			}
		}
		for v := 0; v < g.NumNodes(); v++ {
			if !got.Reachable(NodeID(v)) && !math.IsInf(got.Dist[v], 1) {
				t.Logf("seed %d: unsettled node %d has finite dist %v", seed, v, got.Dist[v])
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// A nil stop set settles the whole graph under a bound too: the guided
// search has no goal to aim at, so it must return the full tree plain
// Dijkstra does rather than stop after the source.
func TestDijkstraWithinBoundedNilStopSettlesAll(t *testing.T) {
	g := NewGrid(6, 6, 1)
	src := g.Node(2, 3)
	want := g.Graph.DijkstraWithinScratch(nil, src, nil)
	got := g.Graph.DijkstraWithinBounded(nil, src, nil, gridBounds(g))
	for v := 0; v < g.NumNodes(); v++ {
		if got.Dist[v] != want.Dist[v] || got.ParentEdge[v] != want.ParentEdge[v] {
			t.Fatalf("node %d: bounded (%v, %d), plain (%v, %d)", v, got.Dist[v], got.ParentEdge[v], want.Dist[v], want.ParentEdge[v])
		}
	}
}

// Property: BiDijkstra's cost matches Dijkstra's within floating-point
// tolerance (the two half-sums fold in a different order), its edge path
// is a real src→goal path of that cost, and disconnection is reported
// exactly when Dijkstra reports it.
func TestQuickBiDijkstraExact(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 5 + rng.Intn(50)
		g := RandomConnected(rng, n, n*3, 8)
		for i := 0; i < g.NumEdges()/3; i++ {
			g.SetEnabled(EdgeID(rng.Intn(g.NumEdges())), false)
		}
		src := NodeID(rng.Intn(n))
		goal := NodeID(rng.Intn(n))
		ref := g.DijkstraWithinScratch(nil, src, []NodeID{goal})
		cost, path, ok := g.BiDijkstra(nil, src, goal, nil)
		if ok != ref.Reachable(goal) {
			t.Logf("seed %d: ok=%v but reachable=%v", seed, ok, ref.Reachable(goal))
			return false
		}
		if !ok {
			return true
		}
		if math.Abs(cost-ref.Dist[goal]) > 1e-9 {
			t.Logf("seed %d: cost %v vs %v", seed, cost, ref.Dist[goal])
			return false
		}
		if math.Abs(g.TotalWeight(path)-cost) > 1e-9 {
			t.Logf("seed %d: path cost %v vs %v", seed, g.TotalWeight(path), cost)
			return false
		}
		// The edge sequence must be walkable src→goal.
		at := src
		for _, id := range path {
			e := g.Edge(id)
			switch at {
			case e.U:
				at = e.V
			case e.V:
				at = e.U
			default:
				t.Logf("seed %d: path breaks at node %d edge %d", seed, at, id)
				return false
			}
		}
		if at != goal {
			t.Logf("seed %d: path ends at %d, want %d", seed, at, goal)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestBiDijkstraTrivialAndDisconnected(t *testing.T) {
	g := New(4)
	g.AddEdge(0, 1, 1)
	// src == goal: empty path, zero cost.
	if c, p, ok := g.BiDijkstra(nil, 2, 2, nil); !ok || c != 0 || len(p) != 0 {
		t.Fatalf("self route: %v %v %v", c, p, ok)
	}
	// 0 and 3 are disconnected.
	if _, _, ok := g.BiDijkstra(nil, 0, 3, nil); ok {
		t.Fatal("disconnected pair reported routable")
	}
}

// A* under a nontrivial bound must settle strictly fewer nodes than plain
// Dijkstra on an open grid corner-to-corner run — the point of the whole
// exercise. (Strictness holds here because the goal is the farthest node:
// Dijkstra settles everything, A* only the diagonal band.)
func TestAStarExpandsFewerOnOpenGrid(t *testing.T) {
	g := NewGrid(20, 20, 1)
	b := gridBounds(g)
	src, goal := g.Node(0, 0), g.Node(19, 19)
	s1, s2 := NewDijkstraScratch(), NewDijkstraScratch()
	ref := g.Graph.DijkstraWithinScratch(s1, src, []NodeID{goal})
	ast := g.Graph.DijkstraWithinBounded(s2, src, []NodeID{goal}, b)
	if ast.Dist[goal] != ref.Dist[goal] {
		t.Fatalf("dist %v vs %v", ast.Dist[goal], ref.Dist[goal])
	}
	if s2.Settled >= s1.Settled {
		t.Fatalf("A* settled %d, dijkstra %d — no pruning", s2.Settled, s1.Settled)
	}
}

// ToSet on a multi-goal set must lower-bound the distance to the nearest
// goal.
func TestQuickToSetAdmissible(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		w, h := 3+rng.Intn(8), 3+rng.Intn(8)
		g := NewGrid(w, h, 1)
		goals := RandomNet(rng, g.Graph, 1+rng.Intn(5))
		toSet := gridBounds(g).ToSet(goals)
		for v := 0; v < g.NumNodes(); v++ {
			best := math.Inf(1)
			spt := g.Dijkstra(NodeID(v))
			for _, gl := range goals {
				if spt.Dist[gl] < best {
					best = spt.Dist[gl]
				}
			}
			if hv := toSet(NodeID(v)); hv > best+1e-9 {
				t.Logf("seed %d: ToSet %v > nearest-goal dist %v at node %d", seed, hv, best, v)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// SPTCache.WithBounds routes Tree calls through the goal-directed search;
// distances on the stop set must match the unbounded cache exactly, and
// the bounded cache must do no more settling work.
func TestSPTCacheWithBoundsParity(t *testing.T) {
	g := NewGrid(12, 12, 1)
	b := gridBounds(g)
	stop := []NodeID{g.Node(1, 1), g.Node(3, 2), g.Node(2, 4)}
	s1, s2 := NewDijkstraScratch(), NewDijkstraScratch()
	plain := NewSPTCacheWithin(g.Graph, stop).WithScratch(s1)
	bounded := NewSPTCacheWithin(g.Graph, stop).WithScratch(s2).WithBounds(b)
	for _, src := range stop {
		tp, tb := plain.Tree(src), bounded.Tree(src)
		for _, v := range stop {
			if tp.Dist[v] != tb.Dist[v] {
				t.Fatalf("src %d goal %d: %v vs %v", src, v, tp.Dist[v], tb.Dist[v])
			}
		}
	}
	if s2.Settled > s1.Settled {
		t.Fatalf("bounded cache settled %d > plain %d", s2.Settled, s1.Settled)
	}
	// Fork must carry the bounds along.
	fs := NewDijkstraScratch()
	fork := bounded.Fork(fs)
	tr := fork.Tree(g.Node(1, 1))
	if tr.Dist[g.Node(3, 2)] != 3 {
		t.Fatalf("fork dist = %v", tr.Dist[g.Node(3, 2)])
	}
}
