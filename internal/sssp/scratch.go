package sssp

import (
	"runtime"
	"sync"
	"sync/atomic"

	"energysssp/internal/bitmap"
	"energysssp/internal/frontier"
	"energysssp/internal/graph"
	"energysssp/internal/obs"
)

// counters is one worker's advance reduction slot, padded to a cache line.
type counters struct {
	edges int64
	_     [7]int64
}

// scratch is the working memory of one solve. The kernel half is the
// filter bitmap and its drain buffer, the per-worker advance output
// buffers, the degree prefix array of the edge-balanced advance, and the
// per-worker counter blocks. The solver half is the frontier and second
// vertex list, and the far queues: the partitioned queue of the
// self-tuning solver (with its block free list), the lazy bucketed queue,
// and the flat queue. Every solve takes one scratch from the idle list in
// NewKernels and gives it back in Release, so a warmed process solves
// without growing any of these.
//
// Invariant: an idle scratch has an all-clear bitmap. AdvanceRange
// drains every bit it sets before returning, so the invariant holds along
// every solver path, including early livelock-guard exits (those happen
// between Advance calls).
type scratch struct {
	seen   *bitmap.Bitmap
	bufs   [][]graph.VID
	out    []graph.VID
	prefix []int64
	counts []counters

	front, aux []graph.VID
	part       frontier.Partitioned
	lazy       frontier.Lazy
	flat       frontier.Flat
}

// idle owns every scratch that no solve holds: a mutex-guarded LIFO free
// list. It keeps at most max(GOMAXPROCS, reserved) entries; Release drops
// a surplus scratch for the GC. reserved is the summed width of the
// batches running now (reserveScratch), so a batch wider than GOMAXPROCS
// keeps one scratch per slot.
var idle struct {
	sync.Mutex
	list     []*scratch
	reserved int
}

// scratchBitmapAllocs counts fresh bitmap allocations, i.e. scratch cache
// misses for the largest component. Tests use it to prove batch solves
// reuse scratch across sources.
var scratchBitmapAllocs atomic.Int64

// scratchGets counts getScratch calls; with scratchBitmapAllocs it yields
// the idle list's hit rate exposed by registerScratchMetrics.
var scratchGets atomic.Int64

// registerScratchMetrics exposes the idle list's process-wide hit rate.
// Idempotent per registry (GaugeFunc replaces the function).
func registerScratchMetrics(r *obs.Registry) {
	r.GaugeFunc("sssp_scratch_gets_total",
		"scratch acquisitions (one per solve)",
		func() float64 { return float64(scratchGets.Load()) })
	r.GaugeFunc("sssp_scratch_misses_total",
		"scratch acquisitions that had to allocate a fresh bitmap",
		func() float64 { return float64(scratchBitmapAllocs.Load()) })
	r.GaugeFunc("sssp_scratch_hit_rate",
		"fraction of scratch acquisitions served fully from the pool",
		func() float64 {
			gets := scratchGets.Load()
			if gets == 0 {
				return 0
			}
			return 1 - float64(scratchBitmapAllocs.Load())/float64(gets)
		})
}

// getScratch takes an idle scratch sized for n vertices and the given
// worker count, preferring the most recently released one whose bitmap
// already covers n, and grows its components as needed.
func getScratch(n, workers int) *scratch {
	scratchGets.Add(1)
	idle.Lock()
	var s *scratch
	if k := len(idle.list); k > 0 {
		i := k - 1
		for j := i; j >= 0; j-- {
			if idle.list[j].fits(n) {
				i = j
				break
			}
		}
		s = idle.list[i]
		copy(idle.list[i:], idle.list[i+1:])
		idle.list[k-1] = nil
		idle.list = idle.list[:k-1]
	}
	idle.Unlock()
	if s == nil {
		s = new(scratch)
	}
	s.size(n, workers)
	return s
}

// putScratch hands s back to the idle list, or to the GC when the list is
// full.
func putScratch(s *scratch) {
	idle.Lock()
	if len(idle.list) < max(runtime.GOMAXPROCS(0), idle.reserved) {
		idle.list = append(idle.list, s)
	}
	idle.Unlock()
}

// reserveScratch makes k idle scratch ready for solves over n vertices on
// the given worker count, and keeps the idle list from dropping below k
// entries until the matching unreserveScratch. A batch of width k calls it
// first, so each of its concurrent solves finds a fitting scratch however
// the goroutines interleave.
func reserveScratch(k, n, workers int) {
	idle.Lock()
	defer idle.Unlock()
	idle.reserved += k
	fit := 0
	for _, s := range idle.list {
		if s.fits(n) {
			fit++
		}
	}
	for _, s := range idle.list {
		if fit < k && !s.fits(n) {
			s.size(n, workers)
			fit++
		}
	}
	for ; fit < k; fit++ {
		s := new(scratch)
		s.size(n, workers)
		idle.list = append(idle.list, s)
	}
}

// unreserveScratch ends a reserveScratch of k. Surplus entries leave the
// idle list lazily, as later releases find it full.
func unreserveScratch(k int) {
	idle.Lock()
	idle.reserved -= k
	idle.Unlock()
}

// fits reports whether the scratch's bitmap covers n vertices.
func (s *scratch) fits(n int) bool { return s.seen != nil && s.seen.Len() >= n }

// size grows the vertex- and worker-sized components to n and workers.
func (s *scratch) size(n, workers int) {
	if !s.fits(n) {
		s.seen = bitmap.New(n)
		scratchBitmapAllocs.Add(1)
	}
	if len(s.bufs) < workers {
		bufs := make([][]graph.VID, workers)
		copy(bufs, s.bufs)
		s.bufs = bufs
	}
	if len(s.counts) < workers {
		s.counts = make([]counters, workers)
	}
}

// grownPrefix returns the prefix array resized to hold n+1 entries.
func (s *scratch) grownPrefix(n int) []int64 {
	if cap(s.prefix) < n+1 {
		s.prefix = make([]int64, n+1)
	}
	s.prefix = s.prefix[:n+1]
	return s.prefix
}
