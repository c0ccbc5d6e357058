package graph

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

// zeroBounds is a Bounds whose every bound is 0: admissible and consistent
// on any graph, and a heuristic that must leave the search's order (and so
// its every label and counter) exactly as plain Dijkstra's.
type zeroBounds struct{}

func (zeroBounds) LowerBound(u, v NodeID) float64 { return 0 }

func (zeroBounds) ToSet([]NodeID) func(NodeID) float64 {
	return func(NodeID) float64 { return 0 }
}

// kernelRun is one search's labels plus the work counters it added.
type kernelRun struct {
	t                   *SPT
	settled, heapPushes int64
}

func runCounted(f func(s *DijkstraScratch) *SPT) kernelRun {
	s := NewDijkstraScratch()
	t := f(s)
	return kernelRun{t, s.Settled, s.HeapPushes}
}

func (a kernelRun) equal(b kernelRun) bool {
	return slices.Equal(a.t.Dist, b.t.Dist) && slices.Equal(a.t.ParentEdge, b.t.ParentEdge) &&
		slices.Equal(a.t.ParentNode, b.t.ParentNode) && a.settled == b.settled && a.heapPushes == b.heapPushes
}

// Property: every mode of the one search kernel collapses to plain mode
// when its extra input is neutral. An overlay with all-zero prices and no
// blocked nodes, a heuristic that is always 0, and SPTCache.Tree under each
// of its four configurations (plain, overlay, bounds, both) must reproduce
// DijkstraWithinScratch's Dist, ParentEdge, ParentNode, Settled and
// HeapPushes bit for bit, with and without a stop set, on random graphs
// with disabled and reweighted edges.
func TestQuickKernelModesMatchPlain(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 5 + rng.Intn(60)
		g := RandomConnected(rng, n, n*3, 8)
		for i := 0; i < g.NumEdges()/4; i++ {
			g.SetEnabled(EdgeID(rng.Intn(g.NumEdges())), false)
		}
		for i := 0; i < g.NumEdges()/4; i++ {
			g.SetWeight(EdgeID(rng.Intn(g.NumEdges())), 1+rng.Float64()*10)
		}
		src := NodeID(rng.Intn(n))
		var stop []NodeID
		if rng.Intn(2) == 0 {
			stop = RandomNet(rng, g, 1+rng.Intn(n))
		}
		ov := NewOverlay(g)
		zero := func(NodeID) float64 { return 0 }
		seeds := []Seed{{Node: src}}
		plain := runCounted(func(s *DijkstraScratch) *SPT { return g.DijkstraWithinScratch(s, src, stop) })
		modes := map[string]kernelRun{
			"overlay": runCounted(func(s *DijkstraScratch) *SPT {
				_, t := g.search(s, seeds, stop, ov, nil, false)
				return t
			}),
			"heuristic": runCounted(func(s *DijkstraScratch) *SPT {
				_, t := g.search(s, seeds, stop, nil, zero, false)
				return t
			}),
			"overlay+heuristic": runCounted(func(s *DijkstraScratch) *SPT {
				_, t := g.search(s, seeds, stop, ov, zero, false)
				return t
			}),
		}
		caches := map[string]func(*SPTCache) *SPTCache{
			"cache":                func(c *SPTCache) *SPTCache { return c },
			"cache+overlay":        func(c *SPTCache) *SPTCache { return c.WithOverlay(ov) },
			"cache+bounds":         func(c *SPTCache) *SPTCache { return c.WithBounds(zeroBounds{}) },
			"cache+overlay+bounds": func(c *SPTCache) *SPTCache { return c.WithOverlay(ov).WithBounds(zeroBounds{}) },
		}
		for name, with := range caches {
			modes[name] = runCounted(func(s *DijkstraScratch) *SPT {
				return with(NewSPTCacheWithin(g, stop).WithScratch(s)).Tree(src)
			})
		}
		for name, got := range modes {
			if !got.equal(plain) {
				t.Logf("seed %d: mode %s diverges from plain (settled %d/%d, pushes %d/%d)",
					seed, name, got.settled, plain.settled, got.heapPushes, plain.heapPushes)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: the bidirectional kernel under a zero-price overlay with
// nothing blocked returns the same cost bits, the same path and the same
// work counters as with a nil overlay.
func TestQuickBiDijkstraZeroOverlayMatchesNil(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 5 + rng.Intn(50)
		g := RandomConnected(rng, n, n*3, 8)
		for i := 0; i < g.NumEdges()/3; i++ {
			g.SetEnabled(EdgeID(rng.Intn(g.NumEdges())), false)
		}
		src, goal := NodeID(rng.Intn(n)), NodeID(rng.Intn(n))
		s1, s2 := NewDijkstraScratch(), NewDijkstraScratch()
		c1, p1, ok1 := g.BiDijkstra(s1, src, goal, nil)
		c2, p2, ok2 := g.BiDijkstra(s2, src, goal, NewOverlay(g))
		if ok1 != ok2 || math.Float64bits(c1) != math.Float64bits(c2) || !slices.Equal(p1, p2) ||
			s1.Settled != s2.Settled || s1.HeapPushes != s2.HeapPushes {
			t.Logf("seed %d: nil (%v,%v,%v) zero overlay (%v,%v,%v)", seed, c1, p1, ok1, c2, p2, ok2)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: under a priced overlay with blocked nodes, the bidirectional
// kernel finds the forward search's distance (within the rounding of its
// two half-sums) along a path that enters no blocked node, and reports
// disconnection exactly when the forward search does.
func TestQuickBiDijkstraOverlayMatchesForward(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 5 + rng.Intn(50)
		g := RandomConnected(rng, n, n*3, 8)
		ov := NewOverlay(g)
		for id := 0; id < g.NumEdges(); id++ {
			ov.AddPrice(EdgeID(id), rng.Float64()*3)
		}
		src, goal := NodeID(rng.Intn(n)), NodeID(rng.Intn(n))
		for i := 0; i < n/4; i++ {
			if v := NodeID(rng.Intn(n)); v != src && v != goal {
				ov.Block(v)
			}
		}
		_, ref := g.search(NewDijkstraScratch(), []Seed{{Node: src}}, []NodeID{goal}, ov, nil, false)
		cost, path, ok := g.BiDijkstra(nil, src, goal, ov)
		if ok != ref.Reachable(goal) || ok && math.Abs(cost-ref.Dist[goal]) > 1e-9 {
			t.Logf("seed %d: bidijkstra (%v,%v), forward %v", seed, cost, ok, ref.Dist[goal])
			return false
		}
		for _, id := range path {
			if e := g.Edge(id); ov.Blocked(e.U) || ov.Blocked(e.V) {
				t.Logf("seed %d: path edge %d touches a blocked node", seed, id)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// A stop-set search settles its seeds as well as its stop nodes: an empty
// stop set settles the source alone, exactly as the pre-CSR oracle does,
// and a seed farther out than every stop node still reads reachable.
func TestStopSetSearchSettlesSeeds(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	g := RandomConnected(rng, 40, 120, 8)
	got := runCounted(func(s *DijkstraScratch) *SPT { return g.DijkstraWithinScratch(s, 5, []NodeID{}) })
	want := runCounted(func(s *DijkstraScratch) *SPT { return g.legacyDijkstra(s, 5, []NodeID{}) })
	if !got.equal(want) || got.settled != 1 {
		t.Fatalf("empty stop set: settled %d (oracle %d), want the source alone", got.settled, want.settled)
	}
	line := New(6)
	for i := 0; i < 5; i++ {
		line.AddEdge(NodeID(i), NodeID(i+1), 1)
	}
	tr := seeded(line, []Seed{{Node: 0}, {Node: 5, Dist: 10}}, []NodeID{1}, nil, nil)
	if !tr.Reachable(5) || tr.Dist[5] != 5 {
		t.Fatalf("far seed: reachable %v, dist %v; want settled at 5", tr.Reachable(5), tr.Dist[5])
	}
}
