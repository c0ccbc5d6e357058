package core

import (
	"math"
	"math/rand"
	"testing"

	"fpgarouter/internal/faultpoint"
	"fpgarouter/internal/graph"
	"fpgarouter/internal/steiner"
)

// sameSPT reports whether two trees are bit-identical: distances compared
// by their float bits, parents exactly.
func sameSPT(a, b *graph.SPT) bool {
	if a.Source != b.Source || len(a.Dist) != len(b.Dist) {
		return false
	}
	for i := range a.Dist {
		if math.Float64bits(a.Dist[i]) != math.Float64bits(b.Dist[i]) ||
			a.ParentEdge[i] != b.ParentEdge[i] || a.ParentNode[i] != b.ParentNode[i] {
			return false
		}
	}
	return true
}

// TestPrefetchMatchesLazyTrees: the terminal trees the scanner computes on
// its forks and adopts into the base cache are bit-identical to the ones
// the cache computes on demand, for plain and stop-set caches, duplicate
// pins included; they stay invisible to lookups until claimed; and the
// prefetch counts every pooled fork's run once — together with the
// caller's scratch, one run per distinct root.
func TestPrefetchMatchesLazyTrees(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := graph.RandomConnected(rng, 120, 500, 10)
	net := graph.RandomNet(rng, g, 7)
	net = append(net, net[2]) // a duplicate pin is searched once
	stop := append(append([]graph.NodeID(nil), net[:7]...), 11, 12, 13)
	for _, within := range []bool{false, true} {
		newCache := func() *graph.SPTCache {
			if within {
				return graph.NewSPTCacheWithin(g, stop)
			}
			return graph.NewSPTCache(g)
		}
		scr := graph.NewDijkstraScratch()
		cache := newCache().WithScratch(scr)
		sc := newScanner(cache, steiner.KMB, Options{Workers: 3})
		var st Stats
		sc.prefetch(&st, net)
		sc.close()
		if st.WorkerSSSPRuns+scr.Runs != 7 {
			t.Fatalf("within=%v: %d pooled + %d caller runs, want 7 (one per distinct pin)", within, st.WorkerSSSPRuns, scr.Runs)
		}
		for _, v := range net {
			if _, ok := cache.CachedTree(v); ok {
				t.Fatalf("within=%v: adopted tree %d visible to lookups before any Tree call", within, v)
			}
		}
		lazy := newCache()
		for _, v := range net {
			if !sameSPT(cache.Tree(v), lazy.Tree(v)) {
				t.Fatalf("within=%v: prefetched tree %d differs from the lazily computed one", within, v)
			}
		}
		if cache.Runs != 7 || scr.Runs+st.WorkerSSSPRuns != 7 {
			t.Fatalf("within=%v: claiming adopted trees ran Dijkstra again (cache runs %d)", within, cache.Runs)
		}
		cache.Release()
		lazy.Release()
	}
}

// TestPrefetchFreeListsBounded: over a thousand prefetching IKMB
// constructions sharing one caller scratch, recycled trees neither pile up
// in the caller's free list (adopted trees recycle there) nor in the pooled
// fork scratches (which lend the caller's buffers instead of their own).
func TestPrefetchFreeListsBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	g := graph.RandomConnected(rng, 60, 240, 10)
	base := graph.AcquireScratch()
	defer graph.ReleaseScratch(base)
	const bound = 32
	for i := 0; i < 1000; i++ {
		net := graph.RandomNet(rng, g, 3+rng.Intn(6))
		cache := graph.NewSPTCache(g).WithScratch(base)
		if _, _, err := IGMSTStats(cache, net, steiner.KMB, Options{Workers: 4}); err != nil {
			t.Fatal(err)
		}
		cache.Release()
		if n := base.FreeSPTs(); n > bound {
			t.Fatalf("call %d: caller scratch holds %d recycled trees, want ≤ %d", i, n, bound)
		}
	}
	for i := 0; i < 3; i++ {
		scr := graph.AcquireScratch()
		defer graph.ReleaseScratch(scr)
		if n := scr.FreeSPTs(); n > bound {
			t.Fatalf("pooled scratch holds %d recycled trees, want ≤ %d", n, bound)
		}
	}
}

// TestScanForkAccounting runs parallel scans and checks the SPTCache.Fork
// release accounting: the scanner's worker forks each check a scratch out
// of the process pool, and when the construction returns every scratch
// must be checked back in — graph.LiveScratches is the leak detector.
func TestScanForkAccounting(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := graph.RandomConnected(rng, 80, 400, 10)
	net := graph.RandomNet(rng, g, 6)
	before := graph.LiveScratches()
	for i := 0; i < 3; i++ {
		cache := graph.NewSPTCache(g)
		if _, _, err := IGMSTStats(cache, net, steiner.KMB, Options{Workers: 8}); err != nil {
			t.Fatal(err)
		}
		cache.Release()
	}
	if after := graph.LiveScratches(); after != before {
		t.Fatalf("scratches leaked across parallel scans: %d live before, %d after", before, after)
	}
}

// TestChaosScanPanicOnCallerFork: a ScanWorker panic during the terminal
// prefetch, or during a scan round, with every shard failing — fork 0, on
// the caller's goroutine and scratch, included — re-raises on the caller
// as a GoroutinePanic, discards the pooled fork scratches, and leaves the
// caller's scratch to its owner: the scanner neither returns it to the
// pool nor discards it.
func TestChaosScanPanicOnCallerFork(t *testing.T) {
	t.Cleanup(faultpoint.Reset)
	rng := rand.New(rand.NewSource(13))
	g := graph.RandomConnected(rng, 80, 400, 10)
	net := graph.RandomNet(rng, g, 6)
	for _, phase := range []string{"prefetch", "scan"} {
		baseline := graph.LiveScratches()
		scr := graph.AcquireScratch()
		cache := graph.NewSPTCache(g).WithScratch(scr)
		if phase == "scan" {
			// Every terminal tree cached up front: the prefetch has nothing
			// to do, so the first armed hit is a scan round's.
			for _, v := range net {
				cache.Tree(v)
			}
		}
		faultpoint.Arm(faultpoint.ScanWorker, faultpoint.Plan{Action: faultpoint.Panic, Every: 1})
		func() {
			defer func() {
				gp, ok := recover().(*faultpoint.GoroutinePanic)
				if !ok {
					t.Fatalf("%s: armed panic did not re-raise as a GoroutinePanic", phase)
				}
				if _, ok := gp.Value.(*faultpoint.Injected); !ok || len(gp.Stack) == 0 {
					t.Fatalf("%s: funneled value %T with %d stack bytes", phase, gp.Value, len(gp.Stack))
				}
			}()
			IGMSTStats(cache, net, steiner.KMB, Options{Workers: 4})
		}()
		faultpoint.Reset()
		if live := graph.LiveScratches(); live != baseline+1 {
			t.Fatalf("%s: %d scratches live after the panic, want %d (baseline plus the caller's own)", phase, live, baseline+1)
		}
		graph.DiscardScratch(scr)
	}
}
