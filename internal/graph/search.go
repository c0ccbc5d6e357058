package graph

import "fpgarouter/internal/faultpoint"

// Seed is one source of a multi-source shortest-path search, carrying the
// initial distance the search starts it at. A set of seeds at distance 0
// makes an existing tree fragment a free source region — the primitive the
// incremental pathfinder uses to reconnect orphaned pins to the surviving
// part of a ripped-up route. Non-zero initial distances express weighted
// source preferences (e.g. partially-paid entry points); they must be
// non-negative and finite.
type Seed struct {
	Node NodeID
	Dist float64
}

// AStarFromAnyOverlay runs the seeded search until the FIRST goal settles
// and returns it: with an admissible h (h is 0 on every goal by
// admissibility) the returned goal is one at minimum distance from the
// seed set, with ties broken deterministically by settlement order. The
// returned SPT is exact for the returned goal and every other settled
// node; unsettled nodes read unreachable. Returns (None, t) when no goal
// is reachable. h may be nil for an unguided (plain Dijkstra) search; ov
// may be nil for an unpriced one.
func (g *Graph) AStarFromAnyOverlay(s *DijkstraScratch, seeds []Seed, goals []NodeID, ov *Overlay, h func(NodeID) float64) (NodeID, *SPT) {
	if s == nil {
		s = AcquireScratch()
		defer ReleaseScratch(s)
	}
	return g.search(s, seeds, goals, ov, h, true)
}

// search is the package's one one-to-many shortest-path loop: every
// single-source, goal-directed, overlaid and seeded search runs through it
// (BiDijkstra is the only other search loop). It is Dijkstra from a seeded
// frontier — one source is one seed at distance 0 — with:
//
//   - an optional overlay (arcs cost base + price, blocked nodes are never
//     entered); nil searches the graph's own weights;
//   - an optional heuristic h (heap keys become Dist + h); nil is plain
//     Dijkstra. h must be admissible and consistent for the effective
//     weights so that each settled distance is final;
//   - two stop disciplines for a non-nil stop set: settle every stop node
//     and every seed (first = false, the DijkstraWithinScratch contract),
//     or settle the first stop node (first = true). A nil stop set settles
//     the whole graph.
//
// It returns the stop node whose settlement ended the search — in
// first-goal mode the goal found — or None if the heap ran out first.
// All working state lives in the scratch and the tree comes off its free
// list, so a warm scratch runs without allocating. The tree's Source is the
// first seed (None for none); seed nodes carry ParentEdge None, so PathTo
// walks back to whichever seed a shortest path entered through.
//
// The relaxation loop streams the CSR arc and weight arrays. Disabled edges
// carry +inf in the weight stream, so `du + w < Dist[to]` rejects them
// with no flag lookup; per-node arc order equals edge-insertion order (see
// rebuildCSR), so ties break by arc order and distances, parents and the
// HeapPushes/Settled counters are bit-identical to the pre-CSR
// adjacency-list loop the tests keep as the oracle. There is no settled
// check per arc: a settled node's distance is final and effective weights
// are non-negative, so the improvement test rejects its arcs anyway — same
// pushes, same counters, one fewer random load per arc.
func (g *Graph) search(s *DijkstraScratch, seeds []Seed, stop []NodeID, ov *Overlay, h func(NodeID) float64, first bool) (NodeID, *SPT) {
	faultpoint.Check(faultpoint.SSSPExpand)
	g.ensureCSR()
	n := g.n
	ep := s.beginRun(n)
	src := None
	if len(seeds) > 0 {
		src = seeds[0].Node
	}
	t := s.acquireSPT(n, src)
	remaining := -1 // stop-set settlements left before the search ends; < 0: none
	if stop != nil {
		remaining = 0
		for _, v := range stop {
			if s.stop[v] != ep {
				s.stop[v] = ep
				remaining++
			}
		}
		if first {
			remaining = 1 // the first stop node settled ends the search
		} else {
			for _, sd := range seeds {
				if s.stop[sd.Node] != ep {
					s.stop[sd.Node] = ep
					remaining++
				}
			}
		}
	}
	s.heap = s.heap[:0]
	q := &s.heap
	for _, sd := range seeds {
		if sd.Dist < t.Dist[sd.Node] {
			t.Dist[sd.Node] = sd.Dist
			key := sd.Dist
			if h != nil {
				key += h(sd.Node)
			}
			q.push(pqItem{key, sd.Node})
			s.HeapPushes++
		}
	}
	found := None
	for len(*q) > 0 {
		u := q.pop().node
		if s.done[u] == ep {
			continue
		}
		s.done[u] = ep
		s.Settled++
		if remaining >= 0 && s.stop[u] == ep {
			remaining--
			if remaining == 0 {
				found = u
				break
			}
		}
		du := t.Dist[u]
		// Sub-slicing arcs/weights to the node's range lets the compiler
		// drop the per-arc bounds checks. The overlay is read through its
		// pointer: copying its slices into locals runs this loop out of
		// registers and spills the arc index (plain searches ~20% slower).
		as := g.arcs[g.offsets[u]:g.offsets[u+1]]
		ws := g.arcw[g.offsets[u]:g.offsets[u+1]]
		ws = ws[:len(as)]
		for k := range as {
			to := as[k].To
			nd := du + ws[k]
			if ov != nil {
				nd += ov.price[as[k].ID]
			}
			if nd < t.Dist[to] {
				if ov != nil && ov.Blocked(to) {
					continue
				}
				t.Dist[to] = nd
				t.ParentEdge[to] = as[k].ID
				t.ParentNode[to] = u
				key := nd
				if h != nil {
					key += h(to)
				}
				q.push(pqItem{key, to})
				s.HeapPushes++
			}
		}
	}
	// Every node relaxed but not settled still has an entry in the heap, so
	// a search that stopped early invalidates exactly those: they read
	// unreachable rather than carrying half-relaxed labels. An exhausted
	// heap leaves nothing tentative.
	for _, it := range *q {
		if v := it.node; s.done[v] != ep {
			t.Dist[v] = inf
			t.ParentEdge[v] = None
			t.ParentNode[v] = None
		}
	}
	return found, t
}
