package graph

import "fpgarouter/internal/faultpoint"

// This file adds the goal-directed entry points on top of the CSR
// substrate: a goal-set-guided variant of DijkstraWithinScratch (A* toward
// a stop set under an admissible consistent lower bound, run by the seeded
// search kernel) and bidirectional Dijkstra for 2-pin connections. Both
// return exact distances for their goals; they differ from plain Dijkstra
// only in which additional nodes get settled (fewer) and, on exact
// floating-point ties, in which of several equal-cost parents is recorded.
// See DESIGN.md §6 for the admissibility argument and the tie-break caveat.

// DijkstraWithinBounded is DijkstraWithinScratch guided toward the stop set
// by an admissible consistent lower bound: nodes are expanded in order of
// Dist + h where h(v) = b.ToSet(stop)(v), so expansion concentrates around
// the stop set instead of growing a full Dijkstra ball. Distances and
// paths for stop nodes are exact; everything unsettled reads unreachable.
// A nil b degrades to DijkstraWithinScratch, and a nil stop set settles the
// whole graph (unguided: there is no goal to aim at). A nil scratch uses
// the pool.
//
// With a single goal this is point-to-point A*: the goal's distance is
// bit-identical to Dijkstra's (the relaxation arithmetic is unchanged);
// the path may differ from Dijkstra's among equal-cost alternatives.
func (g *Graph) DijkstraWithinBounded(s *DijkstraScratch, src NodeID, stop []NodeID, b Bounds) *SPT {
	if s == nil {
		s = AcquireScratch()
		defer ReleaseScratch(s)
	}
	_, t := g.search(s, []Seed{{Node: src}}, stop, nil, goalHeuristic(b, stop), false)
	return t
}

// goalHeuristic returns the search heuristic toward stop under b: nil (plain
// Dijkstra) when there is no bound or no stop set to aim at.
func goalHeuristic(b Bounds, stop []NodeID) func(NodeID) float64 {
	if b == nil || stop == nil {
		return nil
	}
	return b.ToSet(stop)
}

// BiDijkstra computes one shortest path between src and goal by growing
// Dijkstra balls from both ends simultaneously, settling roughly half the
// nodes a one-sided search would. It returns the path's cost and edge IDs
// (src→goal order), or ok = false if the endpoints are disconnected. For
// src == goal it returns an empty path. A nil scratch uses the pool.
//
// ov may be nil; otherwise the search runs over priced effective weights
// (base + price) and never enters blocked nodes, and neither endpoint may
// be blocked.
//
// The distance is exact but its floating-point rounding can differ in the
// last bits from a forward-only sum (the two half-path sums are folded in
// a different order), and the returned path can differ from Dijkstra's
// among equal-cost alternatives — the same contract as
// DijkstraWithinBounded, only looser on the cost bits; callers needing
// bit-reproducibility against forward search must use the forward search.
func (g *Graph) BiDijkstra(s *DijkstraScratch, src, goal NodeID, ov *Overlay) (float64, []EdgeID, bool) {
	if s == nil {
		s = AcquireScratch()
		defer ReleaseScratch(s)
	}
	faultpoint.Check(faultpoint.SSSPExpand)
	g.ensureCSR()
	if src == goal {
		return 0, []EdgeID{}, true
	}
	n := g.n
	ep := s.beginRun(n)
	tf := s.acquireSPT(n, src)
	tb := s.acquireSPT(n, goal)
	defer func() {
		s.RecycleSPT(tb)
		s.RecycleSPT(tf)
	}()
	tf.Dist[src] = 0
	tb.Dist[goal] = 0
	s.heap = s.heap[:0]
	s.heapB = s.heapB[:0]
	qf, qb := &s.heap, &s.heapB
	qf.push(pqItem{0, src})
	qb.push(pqItem{0, goal})
	s.HeapPushes += 2
	best := inf
	meet := None

	// expand settles one node of the chosen side, relaxing its arcs and
	// tracking the best src…u…goal cost seen through any node with finite
	// labels on both sides (tentative labels are fine: each corresponds to
	// a real path whose parent chain is intact).
	expand := func(q *pq, done []uint32, mine, other *SPT) {
		u := q.pop().node
		if done[u] == ep {
			return
		}
		done[u] = ep
		s.Settled++
		du := mine.Dist[u]
		if c := du + other.Dist[u]; c < best {
			best = c
			meet = u
		}
		as := g.arcs[g.offsets[u]:g.offsets[u+1]]
		ws := g.arcw[g.offsets[u]:g.offsets[u+1]]
		ws = ws[:len(as)]
		for k := range as {
			to := as[k].To
			nd := du + ws[k]
			if ov != nil {
				nd += ov.price[as[k].ID]
			}
			if nd < mine.Dist[to] {
				if ov != nil && ov.Blocked(to) {
					continue
				}
				mine.Dist[to] = nd
				mine.ParentEdge[to] = as[k].ID
				mine.ParentNode[to] = u
				q.push(pqItem{nd, to})
				s.HeapPushes++
				if c := nd + other.Dist[to]; c < best {
					best = c
					meet = to
				}
			}
		}
	}

	for len(*qf) > 0 || len(*qb) > 0 {
		topF, topB := inf, inf
		if len(*qf) > 0 {
			topF = (*qf)[0].dist
		}
		if len(*qb) > 0 {
			topB = (*qb)[0].dist
		}
		// Nicholson's stopping rule: no undiscovered route can beat best
		// once the frontiers' combined radius reaches it.
		if topF+topB >= best {
			break
		}
		// Expand the shallower frontier; ties go forward (deterministic).
		if topF <= topB {
			expand(qf, s.done, tf, tb)
		} else {
			expand(qb, s.doneB, tb, tf)
		}
	}
	if meet == None {
		return inf, nil, false
	}
	path := tf.PathTo(meet)
	back := tb.PathTo(meet) // goal→meet order
	for i := len(back) - 1; i >= 0; i-- {
		path = append(path, back[i])
	}
	return best, path, true
}
