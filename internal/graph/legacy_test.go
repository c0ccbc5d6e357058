package graph

// legacyDijkstra is the pre-CSR single-source Dijkstra, kept as the parity
// oracle for the search kernel: it traverses through the public accessors
// the old adjacency-list layout exposed — Adj, then a per-arc Enabled check
// and Weight load — instead of streaming the CSR weight array, and it skips
// arcs into settled nodes explicitly.
//
// Distances, parents and the HeapPushes/Settled counter increments must be
// bit-identical to DijkstraWithinScratch on any graph state: the CSR rebuild
// places each node's arcs in edge-insertion order, exactly how the old
// layout's appends ordered them, and the relaxation arithmetic is
// unchanged. TestQuickCSRMatchesLegacyDijkstra asserts this.
//
// A nil scratch uses the process-wide pool for the duration of the call.
func (g *Graph) legacyDijkstra(s *DijkstraScratch, src NodeID, stop []NodeID) *SPT {
	if s == nil {
		s = AcquireScratch()
		defer ReleaseScratch(s)
	}
	n := g.n
	ep := s.beginRun(n)
	t := s.acquireSPT(n, src)
	remaining := -1 // < 0: no early termination
	if stop != nil {
		remaining = 0
		for _, v := range stop {
			if s.stop[v] != ep {
				s.stop[v] = ep
				remaining++
			}
		}
		if s.stop[src] != ep {
			s.stop[src] = ep
			remaining++
		}
	}
	t.Dist[src] = 0
	s.heap = s.heap[:0]
	q := &s.heap
	q.push(pqItem{0, src})
	s.HeapPushes++
	for len(*q) > 0 {
		it := q.pop()
		u := it.node
		if s.done[u] == ep {
			continue
		}
		s.done[u] = ep
		s.Settled++
		if remaining >= 0 && s.stop[u] == ep {
			remaining--
			if remaining == 0 {
				for v := 0; v < n; v++ {
					if s.done[v] != ep {
						t.Dist[v] = inf
						t.ParentEdge[v] = None
						t.ParentNode[v] = None
					}
				}
				return t
			}
		}
		du := t.Dist[u]
		for _, a := range g.Adj(u) {
			if !g.Enabled(a.ID) || s.done[a.To] == ep {
				continue
			}
			nd := du + g.Weight(a.ID)
			if nd < t.Dist[a.To] {
				t.Dist[a.To] = nd
				t.ParentEdge[a.To] = a.ID
				t.ParentNode[a.To] = u
				q.push(pqItem{nd, a.To})
				s.HeapPushes++
			}
		}
	}
	return t
}
