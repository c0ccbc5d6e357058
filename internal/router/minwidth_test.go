package router

import (
	"errors"
	"fmt"
	"runtime"
	"testing"

	"fpgarouter/internal/circuits"
	"fpgarouter/internal/stats"
)

// resultsEqual asserts bit-identical routing results: same width, pass
// count, aggregate metrics and per-net trees.
func resultsEqual(t *testing.T, tag string, a, b *Result) {
	t.Helper()
	if (a == nil) != (b == nil) {
		t.Fatalf("%s: one result nil (%v vs %v)", tag, a, b)
	}
	if a == nil {
		return
	}
	if a.Width != b.Width || a.Passes != b.Passes || a.Routed != b.Routed {
		t.Fatalf("%s: width/passes/routed %d/%d/%v vs %d/%d/%v",
			tag, a.Width, a.Passes, a.Routed, b.Width, b.Passes, b.Routed)
	}
	if a.Wirelength != b.Wirelength || a.MaxPathSum != b.MaxPathSum || a.MaxUtil != b.MaxUtil {
		t.Fatalf("%s: metrics %v/%v/%d vs %v/%v/%d",
			tag, a.Wirelength, a.MaxPathSum, a.MaxUtil, b.Wirelength, b.MaxPathSum, b.MaxUtil)
	}
	if len(a.Nets) != len(b.Nets) {
		t.Fatalf("%s: net counts %d vs %d", tag, len(a.Nets), len(b.Nets))
	}
	for i := range a.Nets {
		ea, eb := a.Nets[i].Tree.Edges, b.Nets[i].Tree.Edges
		if len(ea) != len(eb) {
			t.Fatalf("%s net %d: tree sizes %d vs %d", tag, i, len(ea), len(eb))
		}
		for j := range ea {
			if ea[j] != eb[j] {
				t.Fatalf("%s net %d edge %d: %d vs %d", tag, i, j, ea[j], eb[j])
			}
		}
	}
}

// TestMinWidthParallelMatchesSequential is the boundary regression test of
// the parallel width search: for several circuits, algorithms and start
// widths, the parallel search must return the same width, error state and
// bit-identical Result as the strictly sequential reference.
func TestMinWidthParallelMatchesSequential(t *testing.T) {
	cases := []struct {
		name   string
		series circuits.Series
		seed   int64
		start  int
		opts   Options
	}{
		{"ikmb-start1", circuits.Series4000, 1, 1, Options{MaxPasses: 6}},
		{"ikmb-start8", circuits.Series4000, 1, 8, Options{MaxPasses: 6}},
		{"kmb", circuits.Series3000, 2, 2, Options{Algorithm: AlgKMB, MaxPasses: 6}},
		{"idom", circuits.Series3000, 3, 3, Options{Algorithm: AlgIDOM, MaxPasses: 6}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ckt := synth(t, tinySpec(tc.series), tc.seed)
			wSeq, resSeq, errSeq := minWidthSeq(nil, ckt, tc.start, tc.opts)
			for _, probes := range []int{0, 1, 3} {
				opts := tc.opts
				opts.WidthProbes = probes
				wPar, resPar, errPar := MinWidth(ckt, tc.start, opts)
				if (errSeq == nil) != (errPar == nil) {
					t.Fatalf("probes=%d: errors %v vs %v", probes, errSeq, errPar)
				}
				if errSeq != nil && errSeq.Error() != errPar.Error() {
					t.Fatalf("probes=%d: error text %q vs %q", probes, errSeq, errPar)
				}
				if wPar != wSeq {
					t.Fatalf("probes=%d: width %d vs sequential %d", probes, wPar, wSeq)
				}
				resultsEqual(t, tc.name, resSeq, resPar)
			}
		})
	}
}

// TestMinWidthHardStartParity stresses the grow phase: MaxPasses 1 with
// move-to-front disabled keeps low widths failing for several batches, so
// the parallel bracket has to skip past genuine ErrUnroutable outcomes and
// still settle on the sequential answer (and the identical error text if
// the search exhausts its width limit).
func TestMinWidthHardStartParity(t *testing.T) {
	if testing.Short() {
		t.Skip("routes many widths")
	}
	ckt := synth(t, tinySpec(circuits.Series4000), 3)
	opts := Options{MaxPasses: 1, NoMoveToFront: true}
	wSeq, _, errSeq := minWidthSeq(nil, ckt, 1, opts)
	opts.WidthProbes = 4
	wPar, _, errPar := MinWidth(ckt, 1, opts)
	if wPar != wSeq {
		t.Fatalf("width %d vs %d", wPar, wSeq)
	}
	if (errSeq == nil) != (errPar == nil) {
		t.Fatalf("errors %v vs %v", errSeq, errPar)
	}
	if errSeq != nil && errSeq.Error() != errPar.Error() {
		t.Fatalf("error text %q vs %q", errSeq, errPar)
	}
}

// TestMinWidthCtxStats checks that a shared collector sees probes from the
// concurrent workers and that GOMAXPROCS does not perturb results.
func TestMinWidthCtxStats(t *testing.T) {
	ckt := synth(t, tinySpec(circuits.Series4000), 1)
	col := stats.New()
	ctx := NewContext(col)
	defer ctx.Close()
	w, res, err := MinWidthCtx(ctx, ckt, 1, Options{MaxPasses: 6, WidthProbes: runtime.GOMAXPROCS(0)})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Routed || res.Width != w {
		t.Fatalf("result %+v at width %d", res, w)
	}
	s := col.Snapshot()
	if s.WidthProbes == 0 || s.SSSPRuns == 0 || s.Passes == 0 || s.NetsRouted == 0 {
		t.Fatalf("collector missed work: %+v", s)
	}
}

// minWidthSeq is the strictly sequential reference implementation of the
// minimum-width search: one Route call at a time, growing then shrinking by
// single widths. MinWidth is guaranteed to return identical results; the
// parity tests hold it to that.
func minWidthSeq(ctx *Context, ckt *circuits.Circuit, start int, opts Options) (int, *Result, error) {
	ctx, done := ensureContext(ctx)
	defer done()
	if start < 1 {
		start = 4
	}
	w := start
	var lastGood *Result
	// Grow until routable.
	for {
		ctx.Stats.AddWidthProbe()
		res, err := RouteCtx(ctx, ckt, w, opts)
		if err == nil {
			lastGood = res
			break
		}
		if !errors.Is(err, ErrUnroutable) {
			return 0, nil, err
		}
		w++
		if w > 4*start+64 {
			return 0, nil, fmt.Errorf("router: %s unroutable up to width %d", ckt.Name, w)
		}
	}
	// Shrink while routable. As in MinWidthCtx, cancellation mid-shrink
	// returns the best feasible width found so far alongside the error.
	for w > 1 {
		ctx.Stats.AddWidthProbe()
		res, err := RouteCtx(ctx, ckt, w-1, opts)
		if err != nil {
			if errors.Is(err, ErrUnroutable) {
				break
			}
			if errors.Is(err, ErrCanceled) {
				return w, lastGood, err
			}
			return 0, nil, err
		}
		w--
		lastGood = res
	}
	return w, lastGood, nil
}
