package main

import (
	"encoding/json"
	"testing"

	"fpgarouter/internal/circuits"
	"fpgarouter/internal/graph"
	"fpgarouter/internal/router"
)

// legalRouting routes term1 (seed 1) with two tracks of slack: a small,
// legal result for the mutation tests to corrupt.
func legalRouting(t *testing.T) (*circuits.Circuit, *router.Result) {
	t.Helper()
	spec, _ := circuits.SpecByName("term1")
	ckt, err := circuits.Synthesize(spec, 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := router.Route(ckt, spec.PaperIKMB+widthSlack, router.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return ckt, res
}

// clone deep-copies a result through its wire format.
func clone(t *testing.T, res *router.Result) *router.Result {
	t.Helper()
	b, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	var c router.Result
	if err := json.Unmarshal(b, &c); err != nil {
		t.Fatal(err)
	}
	return &c
}

// multiEdgeNets returns the indices of nets whose trees have at least two
// edges.
func multiEdgeNets(res *router.Result) []int {
	var idx []int
	for i, nr := range res.Nets {
		if len(nr.Tree.Edges) >= 2 {
			idx = append(idx, i)
		}
	}
	return idx
}

func TestCheckerAcceptsRouterResult(t *testing.T) {
	ckt, res := legalRouting(t)
	if err := checkRouting(ckt, res.Width, res); err != nil {
		t.Fatalf("legal routing rejected: %v", err)
	}
}

// TestCheckerRejectsMutations corrupts a legal result in one way at a time;
// the checker must reject each with the matching violation.
func TestCheckerRejectsMutations(t *testing.T) {
	ckt, legal := legalRouting(t)
	nets := multiEdgeNets(legal)
	if len(nets) < 2 {
		t.Fatal("fixture has too few multi-edge nets")
	}
	a, b := nets[0], nets[1]
	cases := []struct {
		name   string
		want   int // width the result is checked against; 0 = its own
		mutate func(r *router.Result)
		kind   string
	}{
		{"dropped tree edge", 0, func(r *router.Result) {
			e := r.Nets[a].Tree.Edges
			r.Nets[a].Tree.Edges = e[:len(e)-1]
		}, vUnreached},
		{"wire shared by two nets", 0, func(r *router.Result) {
			r.Nets[a].Tree.Edges = append(r.Nets[a].Tree.Edges, r.Nets[b].Tree.Edges[0])
		}, vShared},
		{"span over width", legal.MaxUtil - 1, func(r *router.Result) {}, vOverWidth},
		{"wrong total wirelength", 0, func(r *router.Result) { r.Wirelength += 1 }, vWirelength},
		{"wrong net wirelength", 0, func(r *router.Result) { r.Nets[a].Wirelength -= 0.5 }, vWirelength},
		{"wrong max path", 0, func(r *router.Result) { r.Nets[b].MaxPath += 1 }, vMaxPath},
		{"duplicated edge", 0, func(r *router.Result) {
			r.Nets[b].Tree.Edges = append(r.Nets[b].Tree.Edges, r.Nets[b].Tree.Edges[0])
		}, vCycle},
		{"edge out of range", 0, func(r *router.Result) {
			r.Nets[a].Tree.Edges[0] = graph.EdgeID(1 << 30)
		}, vBadEdge},
		{"partial result", 0, func(r *router.Result) { r.Routed, r.Partial = false, true }, vIncomplete},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			r := clone(t, legal)
			c.mutate(r)
			want := c.want
			if want == 0 {
				want = r.Width
			}
			err := checkRouting(ckt, want, r)
			le, ok := err.(*legalityError)
			if !ok {
				t.Fatalf("corrupted result accepted or not classified: %v", err)
			}
			if !le.has(c.kind) {
				t.Fatalf("want a %q violation, got: %v", c.kind, err)
			}
		})
	}
}
