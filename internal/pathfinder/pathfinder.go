// Package pathfinder is the net-parallel negotiated-congestion router: all
// nets of a circuit are routed concurrently against a frozen routing graph
// under soft congestion prices (PathFinder history costs maintained as
// Lagrange multipliers), instead of one at a time on a mutating fabric.
//
// Each iteration (a) routes every contested net independently — workers
// share nothing but the read-only CSR graph and an immutable price array,
// each searching under its own graph.Overlay — (b) reduces per-resource
// usage over all trees in fixed net order, and (c) raises history prices by
// sub-gradient steps on overcapacity resources. Iteration stops at zero
// overflow (every capacity-one wire and jog is used by at most one net, so
// the trees commit as electrically disjoint routes) or at the iteration
// budget, whichever comes first.
//
// Per-edge effective weight during iteration k is
//
//	base + hist[res(e)] + presFac_k·usage[res(e)] − ownShare + jitter
//
// where hist accumulates HistStep·(usage−1) on every overflowed resource
// (monotone non-decreasing — the Lagrangian multiplier), the present-
// sharing term prices last iteration's usage with a geometrically growing
// presFac, ownShare removes the net's own contribution so an uncontested
// net keeps its tree, and jitter is a deterministic per-(net, edge)
// tie-break of relative size JitterEps that stops symmetric nets from
// ping-ponging between equal-cost alternatives in lockstep.
//
// Determinism contract: a net's route is a pure function of the frozen
// graph, the iteration's shared prices, the net's own previous tree, and
// the net's identity — never of goroutine scheduling. Workers copy the
// shared prices into a private overlay once per iteration and restore the
// entries they perturb after every net; the reduce walks nets in index
// order using integer usage counts. Results are therefore bit-identical
// for a fixed Config.Seed across every Workers setting (asserted under
// -race by the router's pathfinder parity suite).
package pathfinder

import (
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"fpgarouter/internal/circuits"
	"fpgarouter/internal/core"
	"fpgarouter/internal/faultpoint"
	"fpgarouter/internal/fpga"
	"fpgarouter/internal/graph"
	"fpgarouter/internal/stats"
	"fpgarouter/internal/steiner"
)

// Algorithm names accepted by Config.Algorithm. The pathfinder routes each
// net with a Steiner construction that reads every edge weight through the
// worker's overlay; only the cache-mediated constructions qualify.
const (
	AlgKMB  = "kmb"
	AlgIKMB = "ikmb"
)

// maxWorkers caps the default net-routing fan-out.
const maxWorkers = 8

// Config parameterizes a pathfinder run. The zero value is completed by
// defaults: IKMB, GOMAXPROCS workers (capped at 8), 96 iterations,
// HistStep 0.4, PresFac 1 growing ×2 per iteration capped at 16, jitter 1e-3.
type Config struct {
	// Algorithm selects the per-net construction (AlgIKMB default, AlgKMB).
	Algorithm string
	// Workers bounds the net-routing goroutines of the frozen-price
	// iterations and the candidate-scan fan-out of the sequential passes
	// (SeqBelow/SeqAfter and the polish pass), which route one net at a
	// time. 0 selects the default (GOMAXPROCS capped at 8); values below 1
	// force sequential routing. Results are bit-identical at every setting.
	Workers int
	// MaxIters is the iteration budget before giving up (default 96).
	MaxIters int
	// BBoxMargin widens each net's Steiner-candidate bounding box.
	BBoxMargin int
	// MaxPool caps each net's candidate pool (0 = unlimited).
	MaxPool int
	// SingleStep forces one-candidate-per-round admission in IKMB.
	SingleStep bool
	// HistStep is the sub-gradient step: every iteration adds
	// HistStep·(usage−1) to each overflowed resource's history price.
	HistStep float64
	// PresFac is the first priced iteration's present-sharing factor.
	PresFac float64
	// PresMult grows PresFac geometrically per iteration.
	PresMult float64
	// PresMax caps the present factor (default 16): unbounded growth would
	// eventually dwarf the base geometry and the jitter (which scales with
	// the present factor) would randomize late-iteration routes. Once the
	// cap is reached the monotone history prices carry the pressure.
	PresMax float64
	// SeqBelow is the Gauss-Seidel cutover: once the contested set is at
	// most SeqBelow nets, iterations route it sequentially in net-index
	// order against LIVE usage pricing instead of fanning out against
	// frozen prices. Frozen-price (Jacobi) iterations resolve small
	// standoffs slowly — two nets sharing one wire each gain only
	// HistStep of pressure per iteration — while the sequential pass
	// settles them immediately: the first net keeps the resource at its
	// now-unshared price, the second sees the full present penalty and
	// detours. The cutover depends only on the contested count, so
	// results stay worker-count invariant (default 8; negative disables).
	SeqBelow int
	// SeqAfter bounds the frozen-price (Jacobi) phase: past this iteration
	// every contested set is routed sequentially, whatever its size. Jacobi
	// fan-out collapses congestion fast while the contested set is large,
	// but on the hardest instances it plateaus — rival nets keep swapping
	// between the same wires under prices that only move between
	// iterations — and the live-priced Gauss-Seidel pass is what actually
	// finishes the negotiation. The trigger depends only on the iteration
	// number, so results stay worker-count invariant (default 48; negative
	// disables the escalation).
	SeqAfter int
	// JitterEps scales the deterministic per-(net, edge) tie-break noise,
	// relative to the current present factor. 0 selects the default (1e-3);
	// negative disables jitter.
	JitterEps float64
	// Incremental enables partial rip-up-and-reroute in the frozen-price
	// (Jacobi) iterations: a contested net keeps the fragment of its
	// previous tree that touches no overflowed resource and reconnects its
	// orphaned pins by multi-source search seeded from the fragment, while
	// reduce and reprice run as deltas over only the changed state (see
	// incremental.go). The Gauss-Seidel endgame still reroutes in full —
	// its live pricing is what settles the last standoffs. Determinism is
	// unchanged: results stay bit-identical across Workers settings.
	Incremental bool
	// Seed seeds the jitter hash; fixed seed ⇒ bit-identical results.
	Seed uint64
	// Stats receives iteration and per-net counters when non-nil.
	Stats *stats.Collector
	// Cancel, when non-nil, is polled at iteration boundaries; a non-nil
	// return aborts the run with that error and a partial Result.
	Cancel func() error
	// CheckpointFn, when non-nil, receives a serializable snapshot of the
	// run at iteration boundaries chosen by CheckpointEvery and
	// CheckpointPeriod. Emission never perturbs the run: results with and
	// without checkpointing are bit-identical. The callback runs on the
	// engine's goroutine; it should not block for long.
	CheckpointFn func(*Checkpoint)
	// CheckpointEvery emits a checkpoint every Nth iteration, counted in
	// absolute iteration numbers so a resumed run keeps the original
	// cadence (0 disables the iteration trigger).
	CheckpointEvery int
	// CheckpointPeriod emits a checkpoint when this much wall-clock time
	// passed since the last one, evaluated at iteration boundaries
	// (0 disables the time trigger).
	CheckpointPeriod time.Duration
	// Resume restarts a run from a prior Checkpoint instead of iteration 1.
	// The circuit, fabric, and deterministic Config knobs must match the
	// checkpointed run (guarded fields are validated; an incompatible
	// checkpoint fails the run). The resumed run's Result is bit-identical
	// to the uninterrupted run's.
	Resume *Checkpoint
	// hooks lets in-package tests observe the engine after each reprice and
	// reduce — the incremental-vs-full parity suite. Always nil in
	// production.
	hooks *debugHooks
}

func (c Config) withDefaults() Config {
	if c.Algorithm == "" {
		c.Algorithm = AlgIKMB
	}
	if c.Workers == 0 {
		c.Workers = runtime.GOMAXPROCS(0)
		if c.Workers > maxWorkers {
			c.Workers = maxWorkers
		}
	}
	if c.Workers < 1 {
		c.Workers = 1
	}
	if c.MaxIters <= 0 {
		c.MaxIters = 96
	}
	if c.HistStep == 0 {
		c.HistStep = 0.4
	}
	if c.PresFac == 0 {
		c.PresFac = 1
	}
	if c.PresMult == 0 {
		c.PresMult = 2
	}
	if c.PresMax == 0 {
		c.PresMax = 16
	}
	switch {
	case c.SeqBelow == 0:
		c.SeqBelow = 8
	case c.SeqBelow < 0:
		c.SeqBelow = 0
	}
	switch {
	case c.SeqAfter == 0:
		c.SeqAfter = 48
	case c.SeqAfter < 0:
		c.SeqAfter = math.MaxInt
	}
	switch {
	case c.JitterEps == 0:
		c.JitterEps = 1e-3
	case c.JitterEps < 0:
		c.JitterEps = 0
	}
	return c
}

// IterStat records one iteration's outcome for convergence analysis (and
// the monotonicity tests: HistSum never decreases across a run).
type IterStat struct {
	Rerouted     int     // nets routed this iteration
	Overflow     int     // resources over capacity after the reduce
	PriceUpdates int     // history prices raised by the sub-gradient step
	HistSum      float64 // total history price after the update
}

// Result is the outcome of a pathfinder run. Trees is indexed by net;
// with Converged the trees are mutually resource-disjoint and commit
// cleanly. Without it, FailedNets lists the nets still touching an
// overcapacity resource — the remaining nets are provably disjoint (a
// resource used by two nets is overflowed, putting both nets in the failed
// set), so a partial commit of the rest is always valid.
type Result struct {
	Trees      []graph.Tree
	Iterations int
	Converged  bool
	Overflow   int   // overflowed resources after the final iteration
	FailedNets []int // net indices without a committable tree
	NetRoutes  int64 // total per-net route executions across iterations
	History    []IterStat
	// Rip-up accounting (summed over iterations ≥ 2, where a previous tree
	// exists): EdgesRipped counts previous-tree edges discarded before
	// rerouting, EdgesRetained the edges kept by partial rip-up, and
	// IncrementalReroutes the nets that reconnected from a retained
	// fragment instead of rebuilding. Full-reroute mode rips everything, so
	// it reports EdgesRipped with zero retained.
	EdgesRipped         int64
	EdgesRetained       int64
	IncrementalReroutes int64
}

// engine holds one run's precomputed fabric facts and shared iteration
// state. Shared slices are read-only while workers run; workers write only
// trees (disjoint indices) and their own private state.
type engine struct {
	cfg  Config
	fab  *fpga.Fabric
	g    *graph.Graph
	nets []circuits.Net

	// Capacity-one resources: wires 0..numWires-1 (a wire's segments and
	// taps live and die together, exactly as CommitNet claims them), then
	// one resource per switch-block jog edge (CommitNet disables used jogs
	// individually). edgeRes maps every edge to its resource; resource r's
	// edges are resEdgeIx[resOff[r]:resOff[r+1]], a prefix-summed flat
	// index built once at setup (ascending edge IDs within each resource).
	numWires  int
	edgeRes   []int32
	resOff    []int32
	resEdgeIx []graph.EdgeID

	// blockedTmpl has every logic-block pin node blocked: pins are not
	// routing switches, so a route may only enter the pins of its own net.
	// Workers load it once and unblock/re-block terminals per net — the
	// overlay equivalent of the sequential router's BeginNet.
	blockedTmpl []uint64

	hist        []float64 // per-resource history price (Lagrange multipliers)
	usage       []int32   // per-resource usage from the latest reduce
	sharedPrice []float64 // per-edge price frozen for the current iteration
	priced      []graph.EdgeID
	trees       []graph.Tree

	resEp []uint32 // reduce-side per-resource epoch marks
	ep    uint32

	// workers persists the routing goroutines' private state (scratch,
	// overlay, reconnect buffers) across iterations; releaseWorkers returns
	// everything to the pools once per run instead of once per iteration.
	workers []*worker

	// inc is the incremental-mode delta state (nil when Config.Incremental
	// is off); iterRipped/iterRetained/iterIncRe accumulate the current
	// iteration's rip-up accounting (summed from workers after the barrier,
	// so worker-count invariant).
	inc        *incState
	iterRipped int64
	iterRetain int64
	iterIncRe  int64

	// lastCkpt anchors Config.CheckpointPeriod's wall-clock trigger.
	lastCkpt time.Time
}

// Route routes every net of nets on fab's routing graph. The fabric must be
// in its reset state (nothing claimed, base weights); Route never mutates
// it — the caller commits the returned trees. On abort (cancellation, an
// injected fault, a disconnected net) the error is returned alongside the
// partial Result; non-convergence within the budget returns Converged
// false with a nil error, leaving the unroutable-at-this-width decision to
// the caller.
func Route(fab *fpga.Fabric, nets []circuits.Net, cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	if cfg.Algorithm != AlgKMB && cfg.Algorithm != AlgIKMB {
		return nil, fmt.Errorf("pathfinder: algorithm %q is not overlay-capable (want %q or %q)", cfg.Algorithm, AlgIKMB, AlgKMB)
	}
	g := fab.Graph()
	e := &engine{
		cfg:  cfg,
		fab:  fab,
		g:    g,
		nets: nets,
	}
	e.numWires = fab.NumWires()
	e.edgeRes = make([]int32, g.NumEdges())
	numJogs := 0
	for id := 0; id < g.NumEdges(); id++ {
		if w := fab.WireOfEdge(graph.EdgeID(id)); w >= 0 {
			e.edgeRes[id] = int32(w)
		} else {
			e.edgeRes[id] = int32(e.numWires + numJogs)
			numJogs++
		}
	}
	numRes := e.numWires + numJogs
	// Prefix-summed resource→edge index: count, scan, scatter in edge-ID
	// order, so each resource's edge list comes out ascending.
	e.resOff = make([]int32, numRes+1)
	for _, r := range e.edgeRes {
		e.resOff[r+1]++
	}
	for r := 0; r < numRes; r++ {
		e.resOff[r+1] += e.resOff[r]
	}
	e.resEdgeIx = make([]graph.EdgeID, len(e.edgeRes))
	cur := make([]int32, numRes)
	copy(cur, e.resOff[:numRes])
	for id, r := range e.edgeRes {
		e.resEdgeIx[cur[r]] = graph.EdgeID(id)
		cur[r]++
	}
	e.blockedTmpl = make([]uint64, (g.NumNodes()+63)/64)
	lo, hi := fab.PinNodeRange()
	for v := lo; v < hi; v++ {
		e.blockedTmpl[v>>6] |= 1 << (uint(v) & 63)
	}
	e.hist = make([]float64, numRes)
	e.usage = make([]int32, numRes)
	e.sharedPrice = make([]float64, g.NumEdges())
	e.trees = make([]graph.Tree, len(nets))
	e.resEp = make([]uint32, numRes)
	if cfg.Incremental {
		e.inc = &incState{
			resActive:   make([]bool, numRes),
			touchedMark: make([]bool, numRes),
		}
	}
	return e.run()
}

// resEdges returns every edge of resource r (a wire's segment and tap
// edges, or the single jog edge) from the flat prefix-summed index.
func (e *engine) resEdges(r int32) []graph.EdgeID {
	return e.resEdgeIx[e.resOff[r]:e.resOff[r+1]]
}

// run is the iteration loop: price → parallel route → reduce → update.
func (e *engine) run() (*Result, error) {
	defer e.releaseWorkers()
	res := &Result{Trees: e.trees}
	reroute := make([]int32, 0, len(e.nets))
	// Incremental mode ends with one polish pass: reconnected trees are
	// accretions of patches that can lock in detours, so on first reaching
	// zero overflow every net is rebuilt in full, sequentially under live
	// prices (the Gauss-Seidel machinery), and the loop re-confirms zero
	// overflow before declaring convergence. One extra pass buys back the
	// wirelength the patches gave up.
	polished, forceSeq := false, false
	startIter := 1
	if ck := e.cfg.Resume; ck != nil {
		if err := e.restore(ck, res); err != nil {
			return res, err
		}
		startIter = ck.Iteration + 1
		reroute = append(reroute, ck.Reroute...)
		polished, forceSeq = ck.Polished, ck.ForceSeq
	} else {
		for i := range e.nets {
			reroute = append(reroute, int32(i))
		}
	}
	e.lastCkpt = time.Now()
	for iter := startIter; iter <= e.cfg.MaxIters; iter++ {
		if e.cfg.Cancel != nil {
			if err := e.cfg.Cancel(); err != nil {
				e.fail(res, reroute)
				return res, err
			}
		}
		res.Iterations = iter
		// presFac for this iteration's present-sharing term. Iteration 1
		// routes at zero prices — every net gets its unconstrained shortest
		// Steiner tree, the Lagrangian's initial point.
		presFac := 0.0
		if iter >= 2 {
			presFac = e.cfg.PresFac
			for k := 2; k < iter && presFac < e.cfg.PresMax; k++ {
				presFac *= e.cfg.PresMult
			}
			if presFac > e.cfg.PresMax {
				presFac = e.cfg.PresMax
			}
		}
		if e.inc != nil {
			e.repriceDelta(presFac)
		} else {
			e.reprice(presFac)
		}
		if h := e.cfg.hooks; h != nil && h.afterReprice != nil {
			h.afterReprice(e, iter, presFac)
		}
		var err error
		seq := forceSeq || iter >= 2 && (len(reroute) <= e.cfg.SeqBelow || iter > e.cfg.SeqAfter)
		forceSeq = false
		if seq {
			err = e.routeSeq(reroute, presFac)
		} else {
			if e.inc != nil {
				// Snapshot the rerouted nets' current trees (slice headers
				// only — routing always builds fresh edge slices) so the
				// delta reduce can subtract them after workers overwrite.
				e.inc.prevSnap = e.inc.prevSnap[:0]
				for _, i32 := range reroute {
					e.inc.prevSnap = append(e.inc.prevSnap, e.trees[i32])
				}
			}
			err = e.routeAll(reroute, iter, presFac)
		}
		if err != nil {
			e.fail(res, reroute)
			return res, err
		}
		var overflow, priceUpdates int
		var histSum float64
		if e.inc != nil {
			overflow, priceUpdates, histSum = e.reduceDelta(reroute, seq)
		} else {
			overflow, priceUpdates, histSum = e.reduce()
		}
		if h := e.cfg.hooks; h != nil && h.afterReduce != nil {
			h.afterReduce(e, iter)
		}
		e.cfg.Stats.AddPathfinderIteration(int64(overflow), int64(priceUpdates))
		e.cfg.Stats.AddIncremental(e.iterIncRe, e.iterRipped, e.iterRetain)
		res.EdgesRipped += e.iterRipped
		res.EdgesRetained += e.iterRetain
		res.IncrementalReroutes += e.iterIncRe
		e.iterRipped, e.iterRetain, e.iterIncRe = 0, 0, 0
		res.History = append(res.History, IterStat{
			Rerouted:     len(reroute),
			Overflow:     overflow,
			PriceUpdates: priceUpdates,
			HistSum:      histSum,
		})
		res.NetRoutes += int64(len(reroute))
		if overflow == 0 {
			if !(e.inc != nil && !polished && iter < e.cfg.MaxIters) {
				res.Converged = true
				return res, nil
			}
			polished, forceSeq = true, true
			reroute = reroute[:0]
			for i := range e.nets {
				reroute = append(reroute, int32(i))
			}
		} else {
			// Selective rip-up: only nets touching an overflowed resource
			// renegotiate; everyone else keeps their tree (and keeps pricing
			// it through the usage term).
			reroute = e.contested(reroute[:0])
		}
		// Checkpoint at the boundary, after the next iteration's rip-up set
		// and polish flags are decided — the snapshot then fully determines
		// the continuation.
		e.maybeCheckpoint(iter, res, reroute, polished, forceSeq)
	}
	res.Overflow = e.overflowCount()
	e.fail(res, e.contested(nil))
	return res, nil
}

// reprice freezes this iteration's shared per-edge price array:
// hist[res] + presFac·usage[res] on every edge, and rebuilds the priced
// edge list (ascending edge ID) that workers perturb and restore per net.
func (e *engine) reprice(presFac float64) {
	e.priced = e.priced[:0]
	for id, r := range e.edgeRes {
		p := e.hist[r] + presFac*float64(e.usage[r])
		e.sharedPrice[id] = p
		if p != 0 {
			e.priced = append(e.priced, graph.EdgeID(id))
		}
	}
}

// netError is a per-net routing failure; workers keep the lowest net index
// so the surfaced error is scheduling-independent.
type netError struct {
	idx int
	err error
}

// acquireWorkers grows the engine's persistent worker pool to n and returns
// the first n workers. Scratches and overlays are created once per run and
// reused by every iteration; callers refresh overlay prices and blocks
// before fanning out.
func (e *engine) acquireWorkers(n int) []*worker {
	for len(e.workers) < n {
		s := graph.AcquireScratch()
		e.workers = append(e.workers, &worker{
			scratch: s,
			ov:      graph.NewOverlay(e.g),
			resEp:   make([]uint32, len(e.resEp)),
			runs0:   s.Runs,
			pushes0: s.HeapPushes,
		})
	}
	return e.workers[:n]
}

// releaseWorkers returns every pooled scratch at the end of the run (via
// run's defer, so abort and panic paths are covered too), discarding those
// whose goroutine panicked mid-route, and records the run's total SSSP
// work.
func (e *engine) releaseWorkers() {
	var runs, pushes int64
	for _, wk := range e.workers {
		if wk.poisoned {
			graph.DiscardScratch(wk.scratch)
			continue
		}
		runs += wk.scratch.Runs - wk.runs0
		pushes += wk.scratch.HeapPushes - wk.pushes0
		graph.ReleaseScratch(wk.scratch)
	}
	e.workers = e.workers[:0]
	e.cfg.Stats.AddSSSP(runs, pushes)
}

// worker is one net-routing goroutine's private state, reused across
// iterations (the engine keeps workers alive for the whole run).
type worker struct {
	scratch *graph.DijkstraScratch
	ov      *graph.Overlay
	terms   []graph.NodeID
	stop    []graph.NodeID
	resEp   []uint32
	ep      uint32
	// Reconnect buffers (incremental mode): kept/out hold the surviving and
	// rebuilt edge sets, seeds/orphans the search frontier, parent the
	// union-find over dense fragment slots, seen the epoch-stamped
	// fragment-membership marks.
	kept    []graph.EdgeID
	out     []graph.EdgeID
	seeds   []graph.Seed
	orphans []graph.NodeID
	parent  []int32
	seen    []uint32
	seenEp  uint32
	// Per-iteration rip-up accounting, drained into the engine after the
	// iteration barrier (integer sums over the net list — order-free).
	ripped      int64
	retained    int64
	increroutes int64
	// baseline scratch counters for the run-end SSSP accounting.
	runs0, pushes0 int64
	poisoned       bool
	fail           *netError
	panicked       *faultpoint.GoroutinePanic
}

// routeAll routes every net of list concurrently over the engine's worker
// pool. Work is distributed by an atomic cursor — which worker routes which
// net is scheduling-dependent, but irrelevant: every worker would produce
// the identical tree. Panics are funneled to this goroutine and re-raised
// (lowest worker slot first); injected errors abort with the lowest failed
// net index.
func (e *engine) routeAll(list []int32, iter int, presFac float64) error {
	nw := e.cfg.Workers
	if nw > len(list) {
		nw = len(list)
	}
	if nw < 1 {
		nw = 1
	}
	workers := e.acquireWorkers(nw)
	for _, wk := range workers {
		copy(wk.ov.Prices(), e.sharedPrice)
		wk.ov.LoadBlocked(e.blockedTmpl)
	}

	var cursor atomic.Int64
	var wg sync.WaitGroup
	for k := range workers {
		wg.Add(1)
		go func(wk *worker) {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					wk.panicked = &faultpoint.GoroutinePanic{Value: p, Stack: debug.Stack()}
					wk.poisoned = true
				}
			}()
			for {
				i := cursor.Add(1) - 1
				if int(i) >= len(list) {
					return
				}
				idx := int(list[i])
				if err := faultpoint.Hit(faultpoint.PathfinderWorker); err != nil {
					wk.record(idx, err)
					continue
				}
				start := time.Now()
				tree, err := e.routeNet(wk, idx, iter, presFac)
				e.cfg.Stats.ObserveNet(time.Since(start), err == nil)
				if err != nil {
					wk.record(idx, err)
					continue
				}
				e.trees[idx] = tree
			}
		}(workers[k])
	}
	wg.Wait()
	for _, wk := range workers {
		if wk.panicked != nil {
			panic(wk.panicked)
		}
	}
	for _, wk := range workers {
		e.iterRipped += wk.ripped
		e.iterRetain += wk.retained
		e.iterIncRe += wk.increroutes
		wk.ripped, wk.retained, wk.increroutes = 0, 0, 0
	}
	var worst *netError
	for _, wk := range workers {
		if wk.fail != nil && (worst == nil || wk.fail.idx < worst.idx) {
			worst = wk.fail
		}
	}
	if worst != nil {
		return fmt.Errorf("pathfinder: net %d: %w", worst.idx, worst.err)
	}
	return nil
}

// routeSeq is the Gauss-Seidel pass (Config.SeqBelow / Config.SeqAfter):
// the contested nets route one at a time in net-index order, each seeing
// the nets before it already moved. Rip-up removes the net's own share from live
// usage (so no own-share discount is needed) and commit re-prices the new
// tree's resources for the nets after it — exactly the sequential
// PathFinder semantics the frozen-price iterations approximate. Jitter is
// omitted: sequential updates cannot livelock on symmetric ties. Runs on
// the caller's goroutine, which has every core to itself here, so each
// net's IKMB construction fans its terminal searches and candidate scans
// out over Config.Workers; a first error aborts at the lowest net index by
// construction.
func (e *engine) routeSeq(list []int32, presFac float64) error {
	wk := e.acquireWorkers(1)[0]
	copy(wk.ov.Prices(), e.sharedPrice)
	wk.ov.LoadBlocked(e.blockedTmpl)
	defer func() {
		if p := recover(); p != nil {
			// Poison the scratch; run's releaseWorkers discards it.
			wk.poisoned = true
			panic(p)
		}
	}()
	pr := wk.ov.Prices()
	// adjust moves one tree in or out of live usage and re-prices every
	// edge of the touched resources. In incremental mode it also feeds the
	// delta bookkeeping: usage is live here, so the reduce skips its delta
	// pass and only these marks tell the next reprice what moved.
	adjust := func(tree graph.Tree, delta int32) {
		wk.ep++
		for _, id := range tree.Edges {
			r := e.edgeRes[id]
			if wk.resEp[r] == wk.ep {
				continue
			}
			wk.resEp[r] = wk.ep
			e.usage[r] += delta
			if e.inc != nil {
				e.touchRes(r)
				if delta > 0 {
					e.activateRes(r)
				}
			}
			p := e.hist[r] + presFac*float64(e.usage[r])
			for _, re := range e.resEdges(r) {
				pr[re] = p
			}
		}
	}
	for _, i32 := range list {
		idx := int(i32)
		if err := faultpoint.Hit(faultpoint.PathfinderWorker); err != nil {
			return fmt.Errorf("pathfinder: net %d: %w", idx, err)
		}
		e.iterRipped += int64(len(e.trees[idx].Edges))
		adjust(e.trees[idx], -1)
		net := e.nets[idx]
		terms := wk.terms[:0]
		for _, p := range net.Pins {
			terms = append(terms, e.fab.PinNode(p))
		}
		wk.terms = terms
		for _, v := range terms {
			wk.ov.Unblock(v)
		}
		start := time.Now()
		tree, err := e.construct(wk, terms, net.Pins, e.cfg.Workers)
		e.cfg.Stats.ObserveNet(time.Since(start), err == nil)
		for _, v := range terms {
			wk.ov.Block(v)
		}
		if err != nil {
			return fmt.Errorf("pathfinder: net %d: %w", idx, err)
		}
		e.trees[idx] = tree
		adjust(tree, +1)
	}
	return nil
}

func (wk *worker) record(idx int, err error) {
	if wk.fail == nil || idx < wk.fail.idx {
		wk.fail = &netError{idx: idx, err: err}
	}
}

// routeNet routes one net against the worker's overlay. The overlay enters
// and leaves in the shared iteration state (prices = sharedPrice, all pins
// blocked); in between it carries the net's private view — terminals
// unblocked, the net's own present share discounted so its current tree is
// not priced against itself, and jitter on every priced edge.
func (e *engine) routeNet(wk *worker, idx, iter int, presFac float64) (graph.Tree, error) {
	net := e.nets[idx]
	terms := wk.terms[:0]
	for _, p := range net.Pins {
		terms = append(terms, e.fab.PinNode(p))
	}
	wk.terms = terms
	for _, v := range terms {
		wk.ov.Unblock(v)
	}
	pr := wk.ov.Prices()
	if iter >= 2 {
		// Own-share discount: sharedPrice includes presFac·usage where
		// usage counts this net's previous tree once per resource; remove
		// exactly that share on every edge of those resources. Every such
		// resource has usage ≥ 1, so its edges are in the priced list and
		// the post-net restore below covers the discount too.
		if prev := e.trees[idx]; len(prev.Edges) != 0 {
			wk.ep++
			for _, id := range prev.Edges {
				r := e.edgeRes[id]
				if wk.resEp[r] == wk.ep {
					continue
				}
				wk.resEp[r] = wk.ep
				for _, re := range e.resEdges(r) {
					pr[re] -= presFac
				}
			}
		}
		// Deterministic tie-break jitter, scaled to the present factor so
		// it never outweighs a real price difference. It depends on the
		// net's identity, not on scheduling, so symmetric nets stop
		// mirroring each other's moves while results stay worker-count
		// invariant.
		if eps := e.cfg.JitterEps * presFac; eps > 0 {
			for _, id := range e.priced {
				pr[id] += eps * hash01(e.cfg.Seed, int32(idx), int32(id))
			}
		}
	}
	var (
		tree graph.Tree
		err  error
		done bool
	)
	if e.inc != nil && iter >= 2 {
		tree, done = e.reconnect(wk, idx, terms)
	}
	if !done {
		if iter >= 2 {
			// Full rebuild rips the whole previous tree (also the
			// incremental fallback path when no fragment survived).
			wk.ripped += int64(len(e.trees[idx].Edges))
		}
		// Nets already fan out over the workers here, so each net's
		// candidate scans stay inline: nested fan-out would only thrash
		// the scheduler.
		tree, err = e.construct(wk, terms, net.Pins, 1)
	}
	for _, id := range e.priced {
		pr[id] = e.sharedPrice[id]
	}
	for _, v := range terms {
		wk.ov.Block(v)
	}
	return tree, err
}

// construct runs the per-net tree construction under the worker's overlay,
// fanning IKMB's terminal searches and candidate scans out over
// scanWorkers goroutines (core.Options.Workers: results are bit-identical
// at every setting). Goal-directed search is unconditional here: the
// pathfinder has no bit-for-bit tie to the paper's Dijkstra reference (that
// binds only the sequential oracle), and the fabric's coordinate bound
// stays admissible under any non-negative pricing state.
func (e *engine) construct(wk *worker, terms []graph.NodeID, pins []fpga.Pin, scanWorkers int) (graph.Tree, error) {
	if len(terms) == 2 && terms[0] != terms[1] {
		_, path, ok := e.g.BiDijkstra(wk.scratch, terms[0], terms[1], wk.ov)
		if !ok {
			return graph.Tree{}, steiner.ErrNoRoute
		}
		return graph.NewTree(e.g, path), nil
	}
	var pool []graph.NodeID
	stop := append(wk.stop[:0], terms...)
	if e.cfg.Algorithm == AlgIKMB {
		pool = e.fab.SteinerPool(pins, e.cfg.BBoxMargin, e.cfg.MaxPool)
		stop = append(stop, pool...)
	}
	wk.stop = stop
	cache := graph.NewSPTCacheWithin(e.g, stop).
		WithScratch(wk.scratch).
		WithBounds(e.fab.Bounds()).
		WithOverlay(wk.ov)
	defer cache.Release()
	if e.cfg.Algorithm == AlgKMB {
		return steiner.KMB(cache, terms)
	}
	tree, st, err := core.IGMSTStats(cache, terms, steiner.KMB, core.Options{
		Candidates: pool,
		Batched:    !e.cfg.SingleStep,
		Workers:    scanWorkers,
	})
	e.cfg.Stats.AddCandidateWork(st.Evaluations, st.PointsChosen)
	e.cfg.Stats.AddScans(int64(st.ParallelScans), st.ScanWall, st.ScanCPU)
	// Pooled scan forks run Dijkstra on their own scratches, invisible to
	// the worker scratch's deltas that releaseWorkers records.
	e.cfg.Stats.AddSSSP(st.WorkerSSSPRuns, st.WorkerHeapPushes)
	return tree, err
}

// reduce recounts per-resource usage over every tree in net-index order
// (integer counts — no float accumulation, so the result is independent of
// which worker routed which net) and applies the sub-gradient update:
// hist[r] += HistStep·(usage[r]−1) on every overcapacity resource.
func (e *engine) reduce() (overflow, priceUpdates int, histSum float64) {
	clear(e.usage)
	for idx := range e.trees {
		e.ep++
		for _, id := range e.trees[idx].Edges {
			r := e.edgeRes[id]
			if e.resEp[r] == e.ep {
				continue
			}
			e.resEp[r] = e.ep
			e.usage[r]++
		}
	}
	for r, u := range e.usage {
		if u > 1 {
			overflow++
			e.hist[r] += e.cfg.HistStep * float64(u-1)
			priceUpdates++
		}
	}
	for _, h := range e.hist {
		histSum += h
	}
	return overflow, priceUpdates, histSum
}

// contested appends (in ascending net order) every net whose tree touches
// an overcapacity resource — the rip-up set for the next iteration.
func (e *engine) contested(into []int32) []int32 {
	for idx := range e.trees {
		for _, id := range e.trees[idx].Edges {
			if e.usage[e.edgeRes[id]] > 1 {
				into = append(into, int32(idx))
				break
			}
		}
	}
	return into
}

func (e *engine) overflowCount() int {
	n := 0
	for _, u := range e.usage {
		if u > 1 {
			n++
		}
	}
	return n
}

// fail marks res partial: the failed set is the given contested list (for
// aborts mid-iteration, the nets that were up for rerouting). Their trees
// are dropped from the result so the remaining trees are exactly the
// mutually disjoint, committable ones.
func (e *engine) fail(res *Result, contested []int32) {
	for _, idx := range contested {
		res.FailedNets = append(res.FailedNets, int(idx))
		e.trees[idx] = graph.Tree{}
	}
}

// hash01 maps (seed, net, edge) to a deterministic float in [0, 1) via
// SplitMix64 — the jitter stream, independent of any global randomness.
func hash01(seed uint64, net, edge int32) float64 {
	x := seed ^ uint64(uint32(net))<<32 ^ uint64(uint32(edge))
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	x ^= x >> 31
	return float64(x>>11) / (1 << 53)
}
