package main

import (
	"fmt"
	"strings"

	"fpgarouter/internal/circuits"
	"fpgarouter/internal/fpga"
	"fpgarouter/internal/graph"
	"fpgarouter/internal/router"
)

// Violation kinds reported by checkRouting. The mutation tests match on
// them, so each names exactly one legality rule.
const (
	vIncomplete = "incomplete result"
	vWidth      = "width mismatch"
	vBadEdge    = "edge out of range"
	vCycle      = "cycle"
	vUnreached  = "pin not reached"
	vForeignPin = "foreign pin"
	vShared     = "shared wire"
	vOverWidth  = "span over width"
	vWirelength = "wirelength mismatch"
	vMaxPath    = "max path mismatch"
)

// maxViolations caps how many violations one rejection lists.
const maxViolations = 8

// legalityError lists the rules a routed result breaks.
type legalityError struct {
	violations []string
}

func (e *legalityError) Error() string {
	return "illegal routing: " + strings.Join(e.violations, "; ")
}

// has reports whether any violation is of the given kind.
func (e *legalityError) has(kind string) bool {
	for _, v := range e.violations {
		if strings.HasPrefix(v, kind) {
			return true
		}
	}
	return false
}

// checkRouting verifies that res is a complete, legal routing of ckt at
// channel width want. It shares no code with the router: the fabric is
// rebuilt from the architecture, every tree is re-walked, and every metric
// the result reports is recomputed from base edge lengths.
//
//   - every net's tree is acyclic, connected, and reaches all of its pins
//     without touching another net's pins;
//   - no channel wire (and no switch-block jog) is used by two nets;
//   - no channel span carries more than want wires;
//   - per-net Wirelength and MaxPath, and the result's Wirelength and
//     MaxPathSum, equal the recomputed values exactly.
func checkRouting(ckt *circuits.Circuit, want int, res *router.Result) error {
	e := &legalityError{}
	add := func(kind, format string, args ...any) {
		if len(e.violations) < maxViolations {
			e.violations = append(e.violations, kind+": "+fmt.Sprintf(format, args...))
		}
	}
	if res == nil || !res.Routed || res.Partial || len(res.Nets) != len(ckt.Nets) {
		add(vIncomplete, "result is not a complete routing of %d nets", len(ckt.Nets))
		return e
	}
	if res.Width != want {
		add(vWidth, "result reports width %d, request was %d", res.Width, want)
	}
	fab, err := fpga.NewFabric(ckt.ArchAt(res.Width))
	if err != nil {
		return fmt.Errorf("rebuilding fabric: %w", err)
	}
	g := fab.Graph()
	owner := make([]int, fab.NumWires()) // wire → net index + 1
	jogOwner := map[graph.EdgeID]int{}   // switch-block jog → net index + 1
	var wirelength, maxPathSum float64
	for i, net := range ckt.Nets {
		nr := res.Nets[i]
		pins := make(map[graph.NodeID]bool, len(net.Pins))
		for _, p := range net.Pins {
			pins[fab.PinNode(p)] = true
		}
		parent := map[graph.NodeID]graph.NodeID{}
		var find func(v graph.NodeID) graph.NodeID
		find = func(v graph.NodeID) graph.NodeID {
			p, ok := parent[v]
			if !ok {
				parent[v] = v
				return v
			}
			if p == v {
				return v
			}
			r := find(p)
			parent[v] = r
			return r
		}
		adj := map[graph.NodeID][]graph.EdgeID{}
		var wl float64
		valid := true
		for _, id := range nr.Tree.Edges {
			if id < 0 || int(id) >= g.NumEdges() {
				add(vBadEdge, "net %d uses edge %d of %d", i, id, g.NumEdges())
				valid = false
				continue
			}
			ed := g.Edge(id)
			wl += ed.W
			for _, v := range []graph.NodeID{ed.U, ed.V} {
				if _, isPin := fab.PinOf(v); isPin && !pins[v] {
					add(vForeignPin, "net %d passes through pin node %d of another net", i, v)
				}
			}
			if ru, rv := find(ed.U), find(ed.V); ru == rv {
				add(vCycle, "net %d edge %d closes a cycle", i, id)
				valid = false
			} else {
				parent[ru] = rv
			}
			adj[ed.U] = append(adj[ed.U], id)
			adj[ed.V] = append(adj[ed.V], id)
			if w := fab.WireOfEdge(id); w >= 0 {
				if o := owner[w]; o != 0 && o != i+1 {
					add(vShared, "wire %d used by nets %d and %d", w, o-1, i)
				}
				owner[w] = i + 1
			} else {
				if o := jogOwner[id]; o != 0 && o != i+1 {
					add(vShared, "jog edge %d used by nets %d and %d", id, o-1, i)
				}
				jogOwner[id] = i + 1
			}
		}
		src := fab.PinNode(net.Pins[0])
		var root graph.NodeID
		if len(nr.Tree.Edges) > 0 {
			root = find(src)
		}
		for v := range pins {
			if len(net.Pins) > 1 && (len(nr.Tree.Edges) == 0 || find(v) != root) {
				add(vUnreached, "net %d does not connect pin node %d", i, v)
				valid = false
			}
		}
		if wl != nr.Wirelength {
			add(vWirelength, "net %d reports %v, recomputed %v", i, nr.Wirelength, wl)
		}
		if valid {
			if mp := maxPath(g, adj, src, net, fab); mp != nr.MaxPath {
				add(vMaxPath, "net %d reports %v, recomputed %v", i, nr.MaxPath, mp)
			}
		}
		wirelength += nr.Wirelength
		maxPathSum += nr.MaxPath
	}
	if wirelength != res.Wirelength {
		add(vWirelength, "result reports %v, nets sum to %v", res.Wirelength, wirelength)
	}
	if maxPathSum != res.MaxPathSum {
		add(vMaxPath, "result reports max path sum %v, nets sum to %v", res.MaxPathSum, maxPathSum)
	}
	// Channel capacity: count the distinct wires claimed in each span.
	used := map[int]int{}
	for w, o := range owner {
		if o == 0 {
			continue
		}
		for _, s := range wireSpans(fab, fpga.WireID(w)) {
			used[s]++
		}
	}
	for s, n := range used {
		if n > want {
			add(vOverWidth, "span %d carries %d wires, width is %d", s, n, want)
		}
	}
	if len(e.violations) > 0 {
		return e
	}
	return nil
}

// maxPath returns the longest source-to-sink distance along a tree, in
// base edge lengths, accumulated outward from the source.
func maxPath(g *graph.Graph, adj map[graph.NodeID][]graph.EdgeID, src graph.NodeID, net circuits.Net, fab *fpga.Fabric) float64 {
	dist := map[graph.NodeID]float64{src: 0}
	stack := []graph.NodeID{src}
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, id := range adj[u] {
			v := g.Other(id, u)
			if _, seen := dist[v]; !seen {
				dist[v] = dist[u] + g.Edge(id).W
				stack = append(stack, v)
			}
		}
	}
	var m float64
	for _, p := range net.Pins[1:] {
		if d := dist[fab.PinNode(p)]; d > m {
			m = d
		}
	}
	return m
}

// wireSpans returns the channel spans a wire covers, read off the
// switch-block coordinates of its segment edge's endpoints.
func wireSpans(fab *fpga.Fabric, w fpga.WireID) []int {
	seg := fab.Graph().Edge(fab.WireEdges(w)[0])
	i0, j0, _, _ := fab.SBCoords(seg.U)
	i1, j1, _, _ := fab.SBCoords(seg.V)
	var spans []int
	if j0 == j1 {
		for i := min(i0, i1); i < max(i0, i1); i++ {
			spans = append(spans, fab.HSpanIndex(i, j0))
		}
	} else {
		for j := min(j0, j1); j < max(j0, j1); j++ {
			spans = append(spans, fab.VSpanIndex(i0, j))
		}
	}
	return spans
}
