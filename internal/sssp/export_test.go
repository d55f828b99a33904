package sssp

import (
	"fmt"
	"slices"

	"energysssp/internal/graph"
	"energysssp/internal/parallel"
)

// SetRoundHook installs fn to run at the start of every AdvanceRange (nil
// removes it), for the tests of package sssp_test.
func SetRoundHook(fn func(kn *Kernels, front []graph.VID, wlo, whi graph.Weight)) {
	roundHook = fn
}

// kernelRound is one kernel's raw output for a round: the updated vertices
// in emission order (duplicates included), the edges examined, the filter
// output and the distances afterwards.
type kernelRound struct {
	updates []graph.VID
	edges   int64
	out     []graph.VID
	dist    []graph.Dist
}

// runKernel runs one round of the serial kernel (atomic false) or of the
// atomic vertex worker, both on this goroutine, from a copy of dist.
func runKernel(g *graph.Graph, dist []graph.Dist, front []graph.VID, wlo, whi graph.Weight, atomic bool) kernelRound {
	pool := parallel.NewPool(1)
	defer pool.Close()
	kr := kernelRound{dist: slices.Clone(dist)}
	kn := NewKernels(g, pool, nil, kr.dist)
	defer kn.Release()
	kn.front, kn.wlo, kn.whi = front, wlo, whi
	kn.sc.bufs[0], kn.sc.counts[0] = kn.sc.bufs[0][:0], counters{}
	if atomic {
		kn.vertexWorker(0)
	} else {
		kn.serialAdvance()
	}
	kr.updates = slices.Clone(kn.sc.bufs[0])
	kr.edges = kn.sc.counts[0].edges
	kr.out = slices.Clone(kn.filter())
	return kr
}

// CompareKernels runs the round (front, wlo, whi) from the distances in
// dist through the serial single-writer kernel and through the atomic
// vertex kernel, each on this goroutine, and reports the first difference
// in updates (so X2), edges, filter output or resulting distances.
func CompareKernels(g *graph.Graph, dist []graph.Dist, front []graph.VID, wlo, whi graph.Weight) error {
	s := runKernel(g, dist, front, wlo, whi, false)
	a := runKernel(g, dist, front, wlo, whi, true)
	switch {
	case !slices.Equal(s.updates, a.updates):
		return fmt.Errorf("updates differ: serial X2=%d, atomic X2=%d", len(s.updates), len(a.updates))
	case s.edges != a.edges:
		return fmt.Errorf("edges differ: serial %d, atomic %d", s.edges, a.edges)
	case !slices.Equal(s.out, a.out):
		return fmt.Errorf("filter output differs: serial %d vertices, atomic %d", len(s.out), len(a.out))
	case !slices.Equal(s.dist, a.dist):
		return fmt.Errorf("distances differ")
	}
	return nil
}
