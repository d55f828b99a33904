package main

import (
	"sync"
	"time"

	"energysssp/internal/graph"
)

// refChunk is how many vertices the reference kernel hands its workers per
// join, so it pays for goroutine start and join about as often per edge as
// a solve pays for pool launches.
const refChunk = 4096

// refKernel is the benchmark's own fixed workload on one graph: for every
// edge, read its weight and the reference distance of its head, split over
// the solve's worker count in refChunk-vertex pieces with a join after
// each. It works on private copies of the graph and the distances, so no
// change to the program can move it; its time tracks only how fast the
// machine is at the moment for this kind of memory-bound parallel work.
//
// On the reference host the whole machine's speed steps with its
// neighbours' load: within half an hour one wiki-selftuning run read 144 ms
// per solve and a later one 43 ms. Over such steps the ratio of a solve's
// time to the reference kernel's, measured back to back, moved by 5-18%
// depending on the workload, so solve_rel_p50 reports that ratio.
type refKernel struct {
	row  []int64
	col  []int32
	wgt  []int32
	dist []int64
}

func newRefKernel(g *graph.Graph, ref []graph.Dist) *refKernel {
	n, m := g.NumVertices(), g.NumEdges()
	k := &refKernel{
		row:  make([]int64, 1, n+1),
		col:  make([]int32, 0, m),
		wgt:  make([]int32, 0, m),
		dist: make([]int64, n),
	}
	for u := 0; u < n; u++ {
		nb, wt := g.Neighbors(graph.VID(u))
		k.col = append(k.col, nb...)
		k.wgt = append(k.wgt, wt...)
		k.row = append(k.row, int64(len(k.col)))
	}
	copy(k.dist, ref)
	return k
}

// run executes the kernel once and returns its wall time.
func (k *refKernel) run() time.Duration {
	n := len(k.row) - 1
	var sums [workers]struct {
		v int64
		_ [7]int64 // own cache line per worker
	}
	t0 := time.Now()
	for lo := 0; lo < n; lo += refChunk {
		hi := min(lo+refChunk, n)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			a, b := lo+(hi-lo)*w/workers, lo+(hi-lo)*(w+1)/workers
			wg.Add(1)
			go func(w, a, b int) {
				defer wg.Done()
				var s int64
				for e := k.row[a]; e < k.row[b]; e++ {
					s += k.dist[k.col[e]] + int64(k.wgt[e])
				}
				sums[w].v += s
			}(w, a, b)
		}
		wg.Wait()
	}
	d := time.Since(t0)
	for _, s := range sums {
		refSink += s.v
	}
	return d
}

// refSink keeps the kernel's sums live so the compiler cannot drop them.
var refSink int64
