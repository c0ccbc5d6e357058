package steiner

import "fpgarouter/internal/graph"

// KMB is the graph Steiner tree heuristic of Kou, Markowsky and Berman
// (Acta Informatica 1981), as described in the paper's Appendix 8.1:
//
//  1. build the complete distance graph G' over the net,
//  2. compute MST(G') and expand each MST edge into its shortest path in G,
//     yielding subgraph G”,
//  3. compute MST(G”) and delete pendant edges until all leaves are pins.
//
// Performance ratio: 2·(1−1/L) where L is the maximum number of leaves in
// any optimal solution.
func KMB(cache *graph.SPTCache, net []graph.NodeID) (graph.Tree, error) {
	if err := CheckNet(cache, net); err != nil {
		return graph.Tree{}, err
	}
	if len(net) == 1 {
		return graph.Tree{Edges: []graph.EdgeID{}}, nil
	}
	// Step 1+2: MST of the (implicit) complete distance graph over the
	// net, computed matrix-free over cached shortest-path distances —
	// this function is evaluated once per Steiner candidate inside IKMB,
	// so it avoids materializing a graph object per call.
	s := kernelPool.Get().(*kernelScratch)
	defer kernelPool.Put(s)
	pairs, err := distanceMSTPairs(cache, net, s)
	if err != nil {
		return graph.Tree{}, err
	}
	// Expanded paths may share edges; localMST deduplicates the union.
	edges := s.edges[:0]
	for _, pr := range pairs {
		edges = cache.AppendPath(edges, net[pr[0]], net[pr[1]])
	}
	s.edges = edges
	// Step 3: MST over the expanded subgraph, then prune pendant
	// non-terminals.
	return localMST(cache, s, edges, net), nil
}

// distanceMSTPairs runs Prim over the implicit complete distance graph on
// net and returns the chosen (i, j) index pairs. Ties break toward the
// earlier-reached node, deterministically. The pairs live in s and stay
// valid until its next use.
func distanceMSTPairs(cache *graph.SPTCache, net []graph.NodeID, s *kernelScratch) ([][2]int32, error) {
	k := len(net)
	inTree := take(&s.inTree, k)
	best := take(&s.best, k)
	bestFrom := take(&s.bestFrom, k)
	// trees[i] is net[i]'s cached tree (nil if none), resolved once here
	// rather than by a cache lookup per pair; the only tree that can appear
	// meanwhile is the one Dist computes below, which is recorded.
	trees := take(&s.trees, k)
	defer clear(trees)
	for i := range best {
		inTree[i] = false
		best[i] = graph.Inf()
		bestFrom[i] = -1
		trees[i], _ = cache.CachedTree(net[i])
	}
	best[0] = 0
	pairs := s.pairs[:0]
	for iter := 0; iter < k; iter++ {
		u := -1
		for v := 0; v < k; v++ {
			if !inTree[v] && (u < 0 || best[v] < best[u]) {
				u = v
			}
		}
		if best[u] == graph.Inf() {
			return nil, ErrNoRoute
		}
		inTree[u] = true
		if bestFrom[u] >= 0 {
			pairs = append(pairs, [2]int32{bestFrom[u], int32(u)})
		}
		// Read distances the way cache.Dist does — from u's tree when it
		// exists, else from v's, else by computing u's — since the fold
		// order of the sum matters for bit-reproducibility.
		for v := 0; v < k; v++ {
			if inTree[v] {
				continue
			}
			var d float64
			switch {
			case trees[u] != nil:
				d = trees[u].Dist[net[v]]
			case trees[v] != nil:
				d = trees[v].Dist[net[u]]
			default:
				trees[u] = cache.Tree(net[u])
				d = trees[u].Dist[net[v]]
			}
			if d < best[v] {
				best[v] = d
				bestFrom[v] = int32(u)
			}
		}
	}
	s.pairs = pairs
	return pairs, nil
}
