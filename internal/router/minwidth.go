// Minimum channel width search (the router's quality metric, Tables 2–4).
//
// The search runs width probes in parallel — each probe routes the whole
// circuit at one candidate width on an independently built fabric with its
// own child context — but examines probe outcomes strictly in the order the
// sequential search would have visited them, so the returned width, Result
// and error are bit-identical to the one-probe-at-a-time search (the test
// oracle minWidthSeq) at every WidthProbes setting.
package router

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"

	"fpgarouter/internal/circuits"
	"fpgarouter/internal/faultpoint"
)

// MinWidth finds the smallest channel width at which the circuit routes
// completely: it grows the width from start until the first success, then
// walks downward while success persists. It returns the minimum width and
// the routing result at that width. Candidate widths are probed concurrently
// (see Options.WidthProbes); the outcome is identical to the sequential
// search.
func MinWidth(ckt *circuits.Circuit, start int, opts Options) (int, *Result, error) {
	return MinWidthCtx(nil, ckt, start, opts)
}

// probeOut is the outcome of routing the circuit at one candidate width.
type probeOut struct {
	res *Result
	err error
}

// widthProbes resolves Options.WidthProbes: 0 means GOMAXPROCS capped at 8,
// anything below 1 means strictly sequential probing.
func widthProbes(opts Options) int {
	p := opts.WidthProbes
	if p == 0 {
		p = runtime.GOMAXPROCS(0)
		if p > 8 {
			p = 8
		}
	}
	if p < 1 {
		p = 1
	}
	return p
}

// probeBatch routes the circuit at each width of ws concurrently and returns
// the outcomes in the same order. Each probe builds its own fabric and runs
// under a child context (own pooled scratch, shared stats collector), so
// probes share no mutable state. opts is passed raw — normalization happens
// inside RouteCtx per probe, exactly as the sequential search behaves.
func probeBatch(ctx *Context, ckt *circuits.Circuit, ws []int, opts Options) []probeOut {
	out := make([]probeOut, len(ws))
	if len(ws) == 1 {
		ctx.Stats.AddWidthProbe()
		res, err := RouteCtx(ctx, ckt, ws[0], opts)
		out[0] = probeOut{res, err}
		return out
	}
	panics := make([]*faultpoint.GoroutinePanic, len(ws))
	var wg sync.WaitGroup
	for i, w := range ws {
		wg.Add(1)
		go func(i, w int) {
			defer wg.Done()
			child := ctx.child()
			defer func() {
				// A probe panic must not escape its goroutine (it would kill
				// the process, bypassing the service's per-job recover):
				// capture it — stack included — for the barrier to re-raise,
				// and discard the child's scratch instead of pooling it.
				if p := recover(); p != nil {
					gp, ok := p.(*faultpoint.GoroutinePanic)
					if !ok {
						gp = &faultpoint.GoroutinePanic{Value: p, Stack: debug.Stack()}
					}
					panics[i] = gp
					child.Discard()
					return
				}
				child.Close()
			}()
			child.Stats.AddWidthProbe()
			res, err := RouteCtx(child, ckt, w, opts)
			out[i] = probeOut{res, err}
		}(i, w)
	}
	wg.Wait()
	// Re-raise the lowest-indexed probe panic on the owning goroutine
	// (deterministic when several probes fail the same batch).
	for _, gp := range panics {
		if gp != nil {
			panic(gp)
		}
	}
	return out
}

// MinWidthContext is MinWidthCtx with cooperative cancellation: cc is
// checked between probe batches, and every in-flight probe inherits it, so
// a cancellation (or deadline) abandons the whole batch at the probes' next
// pass/net boundary instead of letting width probes run to completion. The
// returned error matches both ErrCanceled and cc's cause under errors.Is.
//
// The search degrades gracefully: complete reports whether it ran to the
// true minimum. When interrupted, the returned width and Result are the
// best feasible width found so far (complete=false), or 0/nil if no width
// had routed yet. ctx may be nil; as in RouteContext it is bound to cc only
// for this call.
func MinWidthContext(cc context.Context, ctx *Context, ckt *circuits.Circuit, start int, opts Options) (w int, res *Result, complete bool, err error) {
	ctx, done := ensureContext(ctx)
	defer done()
	restore := ctx.bind(cc)
	defer restore()
	w, res, err = MinWidthCtx(ctx, ckt, start, opts)
	return w, res, err == nil, err
}

// MinWidthCtx is MinWidth with an explicit routing context (nil for an
// ephemeral one). The search brackets upward from start in parallel batches,
// then refines downward in parallel batches; within each batch the probe
// results are consumed in the order the sequential search visits them, which
// makes the returned (width, Result, error) triple independent of
// WidthProbes and of goroutine scheduling.
//
// A run canceled during the shrink phase returns the best feasible width
// found so far alongside the error (matching ErrCanceled under errors.Is);
// one canceled before any width routed returns (0, nil, err).
func MinWidthCtx(ctx *Context, ckt *circuits.Circuit, start int, opts Options) (int, *Result, error) {
	ctx, done := ensureContext(ctx)
	defer done()
	if start < 1 {
		start = 4
	}
	par := widthProbes(opts)
	limit := 4*start + 64
	w := start
	var lastGood *Result
	// Grow until routable: probe ascending batches [w, w+par) and accept the
	// first width (in ascending order) that routes; a non-unroutable error at
	// an earlier width wins, matching the sequential search's first failure.
grow:
	for {
		if err := ctx.checkCanceled(); err != nil {
			return 0, nil, err
		}
		ws := make([]int, 0, par)
		for x := w; x <= limit && len(ws) < par; x++ {
			ws = append(ws, x)
		}
		if len(ws) == 0 {
			return 0, nil, fmt.Errorf("router: %s unroutable up to width %d", ckt.Name, limit+1)
		}
		for i, p := range probeBatch(ctx, ckt, ws, opts) {
			if p.err == nil {
				w = ws[i]
				lastGood = p.res
				break grow
			}
			if !errors.Is(p.err, ErrUnroutable) {
				return 0, nil, p.err
			}
		}
		w = ws[len(ws)-1] + 1
		if w > limit {
			return 0, nil, fmt.Errorf("router: %s unroutable up to width %d", ckt.Name, w)
		}
	}
	// Shrink while routable: probe descending batches [w-par, w) and walk the
	// results downward from w-1; the first unroutable width stops the search
	// exactly where the sequential walk stops.
	for w > 1 {
		if err := ctx.checkCanceled(); err != nil {
			return w, lastGood, err
		}
		lo := w - par
		if lo < 1 {
			lo = 1
		}
		ws := make([]int, 0, w-lo)
		for x := w - 1; x >= lo; x-- {
			ws = append(ws, x)
		}
		stop := false
		for i, p := range probeBatch(ctx, ckt, ws, opts) {
			if p.err == nil {
				w = ws[i]
				lastGood = p.res
				continue
			}
			if errors.Is(p.err, ErrUnroutable) {
				stop = true
				break
			}
			if errors.Is(p.err, ErrCanceled) {
				// Graceful degradation: a feasible width is in hand, so an
				// interruption surrenders the refinement, not the answer.
				return w, lastGood, p.err
			}
			return 0, nil, p.err
		}
		if stop {
			break
		}
	}
	return w, lastGood, nil
}
