package router

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"fpgarouter/internal/circuits"
	"fpgarouter/internal/fpga"
	"fpgarouter/internal/graph"
)

// paperSpecs returns all fourteen benchmark circuits of Tables 2 and 3.
func paperSpecs() []circuits.Spec {
	return append(append([]circuits.Spec(nil), circuits.Table2Circuits...), circuits.Table3Circuits...)
}

// TestGoalDirectedDistanceParityPaperCircuits is the cross-circuit exactness
// suite for the goal-directed searches: on every paper circuit's fabric,
// for a sample of real nets, the A*-guided stop-set search, point-to-point
// A* and bidirectional Dijkstra must agree with plain Dijkstra
// (DijkstraWithinScratch, which the graph suite pins to the pre-CSR oracle)
// on every terminal distance. This pins the admissibility of the fabric
// bound on real geometry — congestion-free here; the congested case is
// covered by the fpga bounds tests and TestGoalDirectedRouteBusc.
func TestGoalDirectedDistanceParityPaperCircuits(t *testing.T) {
	for _, spec := range paperSpecs() {
		t.Run(spec.Name, func(t *testing.T) {
			ckt := synth(t, spec, 1)
			fab, err := fpga.NewFabric(ckt.ArchAt(10))
			if err != nil {
				t.Fatal(err)
			}
			b := fab.Bounds()
			g := fab.Graph()
			nets := ckt.Nets
			if len(nets) > 12 {
				nets = nets[:12]
			}
			for i, net := range nets {
				fab.BeginNet(net.Pins)
				terms := make([]graph.NodeID, len(net.Pins))
				for j, p := range net.Pins {
					terms[j] = fab.PinNode(p)
				}
				src := terms[0]
				ref := g.DijkstraWithinScratch(nil, src, terms)
				bounded := g.DijkstraWithinBounded(nil, src, terms, b)
				for _, v := range terms {
					if ref.Dist[v] != bounded.Dist[v] {
						t.Fatalf("net %d terminal %d: bounded %v vs dijkstra %v", i, v, bounded.Dist[v], ref.Dist[v])
					}
				}
				goal := terms[len(terms)-1]
				ast := g.DijkstraWithinBounded(nil, src, []graph.NodeID{goal}, b)
				if ast.Dist[goal] != ref.Dist[goal] {
					t.Fatalf("net %d: A* %v vs dijkstra %v", i, ast.Dist[goal], ref.Dist[goal])
				}
				if src != goal {
					cost, _, ok := g.BiDijkstra(nil, src, goal, nil)
					if !ok || math.Abs(cost-ref.Dist[goal]) > 1e-9 {
						t.Fatalf("net %d: bidijkstra (%v,%v) vs dijkstra %v", i, cost, ok, ref.Dist[goal])
					}
				}
			}
		})
	}
}

// TestGoalDirectedExpandsFewerBusc is the CI smoke for the whole point of
// goal-directed search: summed over real busc nets, the A*-guided stop-set
// search settles strictly fewer nodes than plain Dijkstra while returning
// identical terminal distances.
func TestGoalDirectedExpandsFewerBusc(t *testing.T) {
	spec, ok := circuits.SpecByName("busc")
	if !ok {
		t.Fatal("busc spec missing")
	}
	ckt := synth(t, spec, 1)
	fab, err := fpga.NewFabric(ckt.ArchAt(10))
	if err != nil {
		t.Fatal(err)
	}
	g := fab.Graph()
	b := fab.Bounds()
	sp, sb := graph.NewDijkstraScratch(), graph.NewDijkstraScratch()
	for _, net := range ckt.Nets {
		fab.BeginNet(net.Pins)
		terms := make([]graph.NodeID, len(net.Pins))
		for j, p := range net.Pins {
			terms[j] = fab.PinNode(p)
		}
		plain := g.DijkstraWithinScratch(sp, terms[0], terms)
		bounded := g.DijkstraWithinBounded(sb, terms[0], terms, b)
		for _, v := range terms {
			if plain.Dist[v] != bounded.Dist[v] {
				t.Fatalf("terminal %d: %v vs %v", v, bounded.Dist[v], plain.Dist[v])
			}
		}
	}
	if sb.Settled >= sp.Settled {
		t.Fatalf("goal-directed settled %d nodes, dijkstra %d — no pruning on busc", sb.Settled, sp.Settled)
	}
	t.Logf("busc: dijkstra settled %d, goal-directed %d (%.1f%%)",
		sp.Settled, sb.Settled, 100*float64(sb.Settled)/float64(sp.Settled))
}

// TestGoalDirectedRouteBusc routes a real paper circuit end to end with
// GoalDirected on: the route must succeed at the same width, stay within
// capacity, produce valid trees, and its wirelength must stay within 1% of
// the default route's — equal-cost path choices can differ, total cost
// essentially cannot.
func TestGoalDirectedRouteBusc(t *testing.T) {
	spec, ok := circuits.SpecByName("busc")
	if !ok {
		t.Fatal("busc spec missing")
	}
	ckt := synth(t, spec, 1)
	ref, err := Route(ckt, 10, Options{MaxPasses: 4})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Route(ckt, 10, Options{MaxPasses: 4, GoalDirected: true})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Routed {
		t.Fatalf("goal-directed busc failed to route: %+v", res)
	}
	if res.MaxUtil > 10 {
		t.Fatalf("span utilization %d exceeds width", res.MaxUtil)
	}
	fab, err := fpga.NewFabric(ckt.ArchAt(10))
	if err != nil {
		t.Fatal(err)
	}
	for i, nr := range res.Nets {
		terms := make([]graph.NodeID, len(ckt.Nets[i].Pins))
		for j, p := range ckt.Nets[i].Pins {
			terms[j] = fab.PinNode(p)
		}
		if err := graph.ValidateTree(fab.Graph(), nr.Tree, terms); err != nil {
			t.Fatalf("net %d: %v", i, err)
		}
	}
	if dev := math.Abs(res.Wirelength-ref.Wirelength) / ref.Wirelength; dev > 0.01 {
		t.Fatalf("goal-directed wirelength %v deviates %.2f%% from default %v",
			res.Wirelength, 100*dev, ref.Wirelength)
	}
}

// TestRouteParityGoalDirectedAcrossWorkers asserts that the goal-directed
// route is itself deterministic across candidate-scan fan-out: forks carry
// the bound along, the guided searches are sequential within each fork,
// and the scan merge is order-fixed, so the Result must be byte-identical
// at every CandidateWorkers setting. Run under -race this also proves the
// shared Bounds value is safe to read concurrently.
func TestRouteParityGoalDirectedAcrossWorkers(t *testing.T) {
	ckt := synth(t, tinySpec(circuits.Series4000), 3)
	for _, alg := range []string{AlgIKMB, AlgIDOM} {
		for _, w := range []int{4, 8} {
			t.Run(fmt.Sprintf("%s/w=%d", alg, w), func(t *testing.T) {
				run := func(workers int) (*Result, error) {
					return Route(ckt, w, Options{
						Algorithm:        alg,
						MaxPasses:        4,
						CandidateWorkers: workers,
						GoalDirected:     true,
					})
				}
				ref, refErr := run(1)
				for _, cw := range []int{4, 0} {
					res, err := run(cw)
					if (err == nil) != (refErr == nil) {
						t.Fatalf("workers=%d err %v, sequential err %v", cw, err, refErr)
					}
					if !reflect.DeepEqual(res, ref) {
						t.Fatalf("workers=%d goal-directed Result diverges from sequential", cw)
					}
				}
			})
		}
	}
}
