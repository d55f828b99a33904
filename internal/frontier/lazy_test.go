package frontier

import (
	"math/rand/v2"
	"testing"
	"testing/quick"

	"energysssp/internal/graph"
)

func TestLazyBasic(t *testing.T) {
	q := NewLazy(10, 0)
	if q.Width() != 10 || q.Threshold() != 0 || q.Len() != 0 {
		t.Fatalf("init: width=%d thr=%d len=%d", q.Width(), q.Threshold(), q.Len())
	}
	dist := []graph.Dist{5, 15, 25, 40}
	q.Push(0, 5)
	q.Push(1, 15)
	q.Push(2, 25)
	if q.Len() != 3 {
		t.Fatalf("Len = %d", q.Len())
	}
	out, scanned := q.ExtractBelow(20, dist, nil)
	if len(out) != 2 || out[0] != 0 || out[1] != 1 {
		t.Fatalf("out = %v", out)
	}
	if scanned < 2 {
		t.Fatalf("scanned = %d", scanned)
	}
	if q.Threshold() != 20 {
		t.Fatalf("Threshold = %d, want 20", q.Threshold())
	}
	out, _ = q.ExtractBelow(graph.Inf, dist, nil)
	if len(out) != 1 || out[0] != 2 || q.Len() != 0 {
		t.Fatalf("final extract = %v, len=%d", out, q.Len())
	}
}

func TestLazyDropsStale(t *testing.T) {
	q := NewLazy(4, 0)
	dist := []graph.Dist{10}
	q.Push(0, 15) // stale: current dist is 10
	out, _ := q.ExtractBelow(graph.Inf, dist, nil)
	if len(out) != 0 || q.Len() != 0 {
		t.Fatalf("stale entry survived: out=%v len=%d", out, q.Len())
	}
}

// Unlike Flat's O(1) lower bound, the lazy queue's MinDist is exact: stale
// entries met during the ordered bucket scan are dropped, so the first
// fresh entry found is the true minimum.
func TestLazyMinDistExact(t *testing.T) {
	q := NewLazy(10, 0)
	dist := []graph.Dist{1, 40, 22}
	q.Push(0, 3) // stale: vertex 0 improved to 1
	q.Push(1, 40)
	q.Push(2, 22)
	if got := q.MinDist(dist); got != 22 {
		t.Fatalf("MinDist = %d, want exact 22", got)
	}
	if q.Len() != 2 {
		t.Fatalf("stale entry not dropped during scan: len=%d", q.Len())
	}
	// The MinDist scan work is charged to the next extraction.
	_, scanned := q.ExtractBelow(graph.Inf, dist, nil)
	if scanned < 3 {
		t.Fatalf("accrued scan work not charged: scanned=%d", scanned)
	}
	if q.MinDist(dist) != graph.Inf {
		t.Fatal("empty MinDist should be Inf")
	}
}

// Entries beyond the ring window wait in the overflow slab and are found by
// MinDist and redistributed into the ring as the window slides over them.
func TestLazyOverflow(t *testing.T) {
	q := NewLazy(1, 0) // width 1: bucket index == distance-1
	n := 3 * DefaultLazySlots
	dist := make([]graph.Dist, n+1)
	for v := 1; v <= n; v++ {
		dist[v] = graph.Dist(v)
		q.Push(graph.VID(v), graph.Dist(v))
	}
	if q.Len() != n {
		t.Fatalf("Len = %d, want %d", q.Len(), n)
	}
	if got := q.MinDist(dist); got != 1 {
		t.Fatalf("MinDist = %d", got)
	}
	// Extract in window-sized chunks; every vertex must come out exactly once.
	seen := make([]bool, n+1)
	total := 0
	for thr := graph.Dist(DefaultLazySlots); total < n; thr += DefaultLazySlots {
		out, _ := q.ExtractBelow(thr, dist, nil)
		for _, v := range out {
			if seen[v] || dist[v] > thr {
				t.Fatalf("vertex %d extracted wrongly at thr=%d", v, thr)
			}
			seen[v] = true
		}
		total += len(out)
	}
	if total != n || q.Len() != 0 {
		t.Fatalf("extracted %d of %d, len=%d", total, n, q.Len())
	}
}

// A threshold inside a bucket splits it: entries at or below come out,
// fresh entries above are retained and extracted later.
func TestLazyPartialBucket(t *testing.T) {
	q := NewLazy(10, 0)
	dist := []graph.Dist{12, 17, 19}
	for v, d := range dist {
		q.Push(graph.VID(v), d)
	}
	out, _ := q.ExtractBelow(17, dist, nil)
	if len(out) != 2 {
		t.Fatalf("split extract = %v", out)
	}
	for _, v := range out {
		if dist[v] > 17 {
			t.Fatalf("vertex %d beyond threshold", v)
		}
	}
	out, _ = q.ExtractBelow(20, dist, nil)
	if len(out) != 1 || out[0] != 2 || q.Len() != 0 {
		t.Fatalf("remainder = %v, len=%d", out, q.Len())
	}
}

// ExtractBatch drains whole buckets until the batch target is met; the
// returned threshold is the last drained bucket's boundary and every
// extracted distance is at or below it while every retained one is above —
// the order-exactness that makes rho scheduling near-Dijkstra.
func TestLazyExtractBatch(t *testing.T) {
	q := NewLazy(10, 0)
	n := 100
	dist := make([]graph.Dist, n)
	for v := 0; v < n; v++ {
		dist[v] = graph.Dist(v + 1)
		q.Push(graph.VID(v), dist[v])
	}
	out, scanned, thr := q.ExtractBatch(25, dist, nil)
	if len(out) < 25 || scanned < len(out) {
		t.Fatalf("batch = %d entries, scanned %d", len(out), scanned)
	}
	if thr%10 != 0 || q.Threshold() != thr {
		t.Fatalf("threshold %d not a bucket boundary", thr)
	}
	for _, v := range out {
		if dist[v] > thr {
			t.Fatalf("extracted %d above threshold %d", dist[v], thr)
		}
	}
	if got := q.MinDist(dist); got != graph.Inf && got <= thr {
		t.Fatalf("retained minimum %d not above threshold %d", got, thr)
	}
	// Draining the rest in batches visits every remaining vertex once.
	total := len(out)
	for q.Len() > 0 {
		out, _, _ = q.ExtractBatch(25, dist, nil)
		total += len(out)
	}
	if total != n {
		t.Fatalf("extracted %d of %d", total, n)
	}
}

func TestLazyStartThreshold(t *testing.T) {
	// NewLazy(width, startThr) marks everything at or below startThr
	// drained — the near-far invariant that far pushes sit above the
	// current phase boundary.
	q := NewLazy(8, 32)
	if q.Threshold() != 32 {
		t.Fatalf("start threshold = %d, want 32", q.Threshold())
	}
	dist := []graph.Dist{33, 100}
	q.Push(0, 33)
	q.Push(1, 100)
	out, _ := q.ExtractBelow(40, dist, nil)
	if len(out) != 1 || out[0] != 0 {
		t.Fatalf("out = %v", out)
	}
}

// Reuse: a reset queue comes back empty with a fresh configuration,
// regardless of what the previous solve left behind.
func TestLazyResetReuse(t *testing.T) {
	q := NewLazy(10, 0)
	q.Push(0, 5)
	q.Push(1, 2000)
	q.Reset(3, 9)
	if q.Len() != 0 || q.Width() != 3 || q.Threshold() != 9 {
		t.Fatalf("reused queue dirty: len=%d width=%d thr=%d", q.Len(), q.Width(), q.Threshold())
	}
	q.Push(0, 10)
	out, _ := q.ExtractBelow(graph.Inf, []graph.Dist{10}, nil)
	if len(out) != 1 {
		t.Fatalf("out = %v", out)
	}
}

// Property: for any push set (with stale entries mixed in) and any
// ascending threshold schedule, the lazy queue extracts exactly the same
// vertex sets as the flat queue.
func TestLazyFlatEquivalence(t *testing.T) {
	f := func(seed uint64, widthRaw uint8) bool {
		rng := rand.New(rand.NewPCG(seed, seed*5+3))
		width := graph.Dist(widthRaw%64) + 1
		var fq Flat
		lq := NewLazy(width, 0)
		n := 300
		dist := make([]graph.Dist, n)
		for v := 0; v < n; v++ {
			d := graph.Dist(rng.Int64N(100_000) + 1)
			dist[v] = d
			rec := d
			if rng.IntN(5) == 0 {
				rec = d + 1 + graph.Dist(rng.Int64N(50)) // stale entry
			}
			fq.Push(graph.VID(v), rec)
			lq.Push(graph.VID(v), rec)
		}
		thr := graph.Dist(0)
		for step := 0; step < 12; step++ {
			thr += graph.Dist(rng.Int64N(12_000) + 1)
			if step == 11 {
				thr = graph.Inf
			}
			fOut, _ := fq.ExtractBelow(thr, dist, nil)
			lOut, _ := lq.ExtractBelow(thr, dist, nil)
			if len(fOut) != len(lOut) {
				return false
			}
			set := map[graph.VID]bool{}
			for _, v := range fOut {
				set[v] = true
			}
			for _, v := range lOut {
				if !set[v] {
					return false
				}
			}
		}
		return fq.Len() == 0 && lq.Len() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: ExtractBatch visits every fresh vertex exactly once across
// batches, in bucket order, with thresholds monotonically increasing.
func TestLazyBatchCompleteness(t *testing.T) {
	f := func(seed uint64, widthRaw, batchRaw uint8) bool {
		rng := rand.New(rand.NewPCG(seed, seed^991))
		width := graph.Dist(widthRaw%200) + 1
		minBatch := int(batchRaw)%64 + 1
		q := NewLazy(width, 0)
		n := 250
		dist := make([]graph.Dist, n)
		fresh := 0
		for v := 0; v < n; v++ {
			d := graph.Dist(rng.Int64N(300_000) + 1)
			dist[v] = d
			rec := d
			if rng.IntN(4) == 0 {
				rec = d + 1 // stale
			} else {
				fresh++
			}
			q.Push(graph.VID(v), rec)
		}
		seen := map[graph.VID]bool{}
		prevThr := graph.Dist(0)
		floor := graph.Dist(0) // all extractions so far are <= floor
		for q.Len() > 0 {
			out, _, thr := q.ExtractBatch(minBatch, dist, nil)
			if thr < prevThr {
				return false
			}
			for _, v := range out {
				if seen[v] || dist[v] > thr || dist[v] <= floor {
					return false
				}
				seen[v] = true
			}
			prevThr, floor = thr, thr
		}
		return len(seen) == fresh
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
