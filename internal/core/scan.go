package core

import (
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"fpgarouter/internal/faultpoint"
	"fpgarouter/internal/graph"
	"fpgarouter/internal/steiner"
)

// maxScanWorkers caps the default candidate-scan fan-out; beyond eight
// workers the per-round sharding overhead outweighs the shrinking shards on
// the pool sizes the router produces (≤ 1024 candidates).
const maxScanWorkers = 8

// scanWorkers resolves Options.Workers: 0 means GOMAXPROCS capped at
// maxScanWorkers, anything below 1 means the sequential reference scan.
func scanWorkers(opts Options) int {
	w := opts.Workers
	if w == 0 {
		w = runtime.GOMAXPROCS(0)
		if w > maxScanWorkers {
			w = maxScanWorkers
		}
	}
	if w < 1 {
		w = 1
	}
	return w
}

// scanEval is one candidate's outcome in a scan round. Rounds produce evals
// in pool order regardless of how the scan was sharded, so every reduction
// over them reproduces the sequential scan's tie-breaking exactly.
type scanEval struct {
	t   graph.NodeID
	sol graph.Tree
	err error
}

// scanner evaluates the base heuristic over a round's candidate pool,
// either inline on the shared cache (workers == 1, the regression oracle)
// or sharded over worker forks of the cache — read-only views of every
// established tree plus private state for the epoch sets and any
// candidate-rooted Dijkstra runs — so concurrent evaluations share no
// mutable state. Shard 0 runs on the calling goroutine through fork 0,
// whose scratch is the cache's own: the base cache is quiescent while a
// round runs, so its scratch would otherwise sit idle, and only the other
// w−1 forks take scratches from the process-wide pool. Forks persist
// across rounds to keep their scratch warm; close returns the pooled ones.
//
// Before the first base-heuristic call the scanner also computes the net's
// terminal shortest-path trees over the same forks (prefetch) and adopts
// them into the base cache, so the construction's one inherently serial
// step — a Dijkstra per terminal — uses every worker too.
type scanner struct {
	cache   *graph.SPTCache
	H       steiner.Heuristic
	workers int
	forks   []*graph.SPTCache // per-worker cache views (nil when sequential)
	bufs    [][]graph.NodeID  // per-worker terminal buffers
	termBuf []graph.NodeID    // terminal buffer for inline evaluations
	targets []graph.NodeID    // current round's candidates, in pool order
	evals   []scanEval        // reused result buffer
	// workerRuns/workerPushes stage each pooled fork's Dijkstra counter
	// deltas for the round so the reducer can fold them into Stats without
	// racing. Fork 0 stays out: its runs land on the caller's scratch,
	// whose deltas the caller already counts.
	workerRuns   []int64
	workerPushes []int64
	// panics[k] captures a panic recovered on shard k so it can be
	// re-raised on the calling goroutine after the round's barrier — a raw
	// panic on a worker goroutine would kill the whole process, bypassing
	// the service's per-job isolation. poisoned[k] marks that fork's
	// scratch as mid-run-interrupted; close discards a poisoned pooled
	// scratch instead of pooling it, and leaves fork 0's — the caller's —
	// to its owner, which sees the re-raised panic.
	panics   []*faultpoint.GoroutinePanic
	poisoned []bool
}

func newScanner(cache *graph.SPTCache, H steiner.Heuristic, opts Options) *scanner {
	s := &scanner{cache: cache, H: H, workers: scanWorkers(opts)}
	if s.workers > 1 {
		s.forks = make([]*graph.SPTCache, s.workers)
		s.bufs = make([][]graph.NodeID, s.workers)
		s.workerRuns = make([]int64, s.workers)
		s.workerPushes = make([]int64, s.workers)
		s.panics = make([]*faultpoint.GoroutinePanic, s.workers)
		s.poisoned = make([]bool, s.workers)
		s.forks[0] = cache.Fork(cache.Scratch())
		for i := 1; i < s.workers; i++ {
			s.forks[i] = cache.Fork(graph.AcquireScratch())
		}
	}
	return s
}

// close releases every worker fork: private trees recycle into the fork's
// scratch, and pooled scratches return to the pool. A fork whose shard
// panicked is left unreleased — its scratch may hold a half-built run —
// and a poisoned pooled scratch is discarded, since a dropped scratch is
// cheaper than a poisoned pool. Fork 0's scratch belongs to the caller and
// never enters or leaves the pool here.
func (s *scanner) close() {
	for i, f := range s.forks {
		if s.poisoned[i] {
			if i > 0 {
				graph.DiscardScratch(f.Scratch())
			}
			continue
		}
		f.Release()
		if i > 0 {
			graph.ReleaseScratch(f.Scratch())
		}
	}
	s.forks = nil
}

// fanOut runs shard(k) for every k in [0, w): shard 0 inline on the calling
// goroutine, the rest on their own goroutines. A panic in any shard is
// captured with its stack and poisons that shard's fork; after the barrier
// the lowest-indexed panic re-raises on the caller (deterministic when
// several shards fail together), and IGMSTStats' deferred close runs during
// the unwind.
func (s *scanner) fanOut(w int, shard func(k int)) {
	run := func(k int) {
		defer func() {
			if p := recover(); p != nil {
				// Capture the stack here, while the panicking frames are
				// still on this goroutine.
				s.panics[k] = &faultpoint.GoroutinePanic{Value: p, Stack: debug.Stack()}
				s.poisoned[k] = true
			}
		}()
		shard(k)
	}
	var wg sync.WaitGroup
	for k := 1; k < w; k++ {
		s.panics[k] = nil
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			run(k)
		}(k)
	}
	s.panics[0] = nil
	run(0)
	wg.Wait()
	for k := 0; k < w; k++ {
		if s.panics[k] != nil {
			panic(s.panics[k])
		}
	}
}

// prefetch computes the shortest-path tree of every distinct pin of net the
// cache does not hold yet, sharding the roots over the forks, and adopts
// the trees into the base cache (graph.SPTCache.Adopt), where they serve
// the construction's own Tree calls unseen until then — so every query
// answers exactly as the on-demand computation would. Each pooled fork's
// free list is first stocked from the caller's scratch with one recycled
// tree per root it will compute, so the buffers that recycle into the
// caller's scratch when the cache is released are the ones it lent. Nets
// with out-of-range pins are left to the base heuristic's validation.
func (s *scanner) prefetch(st *Stats, net []graph.NodeID) {
	if s.workers == 1 {
		return
	}
	n := s.cache.Graph().NumNodes()
	seen := s.cache.NodeSet()
	roots := s.targets[:0]
	for _, v := range net {
		if v < 0 || int(v) >= n {
			return
		}
		if _, ok := s.cache.CachedTree(v); !ok && seen.Add(v) {
			roots = append(roots, v)
		}
	}
	s.targets = roots
	w := min(s.workers, len(roots))
	if w < 2 {
		return
	}
	// These are the net's first searches, so the graph's lazily built
	// adjacency view may still be stale; build it before sharing the graph.
	s.cache.Graph().Freeze()
	base := s.cache.Scratch()
	for k := 1; k < w; k++ {
		scr := s.forks[k].Scratch()
		base.TransferSPTs(scr, (len(roots)-k+w-1)/w)
		s.workerRuns[k], s.workerPushes[k] = scr.Runs, scr.HeapPushes
	}
	s.fanOut(w, func(k int) {
		for i := k; i < len(roots); i += w {
			faultpoint.Check(faultpoint.ScanWorker)
			s.forks[k].Tree(roots[i])
		}
	})
	for k := 0; k < w; k++ {
		s.cache.Adopt(s.forks[k])
	}
	for k := 1; k < w; k++ {
		scr := s.forks[k].Scratch()
		st.WorkerSSSPRuns += scr.Runs - s.workerRuns[k]
		st.WorkerHeapPushes += scr.HeapPushes - s.workerPushes[k]
	}
}

// withTerm writes spanned followed by t into *buf (grown as needed) and
// returns the slice. Every evaluation gets a terminal list that never
// aliases spanned's backing array: the previous append(spanned, t) idiom
// reused that array across evaluations once capacity allowed, which is a
// data race under the parallel scan and a retention footgun even inline.
func withTerm(buf *[]graph.NodeID, spanned []graph.NodeID, t graph.NodeID) []graph.NodeID {
	n := len(spanned) + 1
	if cap(*buf) < n {
		*buf = make([]graph.NodeID, 0, n+8)
	}
	terms := append((*buf)[:0], spanned...)
	terms = append(terms, t)
	*buf = terms
	return terms
}

// scan evaluates H(G, spanned ∪ {t}) for every pool candidate t not in inNS,
// inline on the shared cache or sharded over the worker forks, returning
// outcomes in pool order and accounting the work into st. The returned
// slice is reused by the next round.
func (s *scanner) scan(st *Stats, spanned []graph.NodeID, inNS map[graph.NodeID]bool, pool []graph.NodeID) []scanEval {
	s.targets = s.targets[:0]
	for _, t := range pool {
		if !inNS[t] {
			s.targets = append(s.targets, t)
		}
	}
	n := len(s.targets)
	st.Evaluations += int64(n)
	if cap(s.evals) < n {
		s.evals = make([]scanEval, n)
	}
	evals := s.evals[:n]
	if s.workers == 1 || n < 2 {
		for i, t := range s.targets {
			sol, err := s.H(s.cache, withTerm(&s.termBuf, spanned, t))
			evals[i] = scanEval{t, sol, err}
		}
		return evals
	}
	w := min(s.workers, n)
	per := (n + w - 1) / w
	cpu := make([]time.Duration, w)
	start := time.Now()
	s.fanOut(w, func(k int) {
		t0 := time.Now()
		fork := s.forks[k]
		scr := fork.Scratch()
		runs0, pushes0 := scr.Runs, scr.HeapPushes
		for i := k * per; i < min((k+1)*per, n); i++ {
			faultpoint.Check(faultpoint.ScanWorker)
			t := s.targets[i]
			sol, err := s.H(fork, withTerm(&s.bufs[k], spanned, t))
			evals[i] = scanEval{t, sol, err}
		}
		s.workerRuns[k] = scr.Runs - runs0
		s.workerPushes[k] = scr.HeapPushes - pushes0
		cpu[k] = time.Since(t0)
	})
	st.ParallelScans++
	st.ScanWall += time.Since(start)
	for _, d := range cpu {
		st.ScanCPU += d
	}
	for k := 1; k < w; k++ {
		st.WorkerSSSPRuns += s.workerRuns[k]
		st.WorkerHeapPushes += s.workerPushes[k]
	}
	return evals
}
