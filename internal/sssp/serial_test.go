package sssp_test

import (
	"math"
	"slices"
	"testing"

	"energysssp/internal/core"
	"energysssp/internal/gen"
	"energysssp/internal/graph"
	"energysssp/internal/obs"
	"energysssp/internal/parallel"
	"energysssp/internal/sim"
	"energysssp/internal/sssp"
)

// solvers are the three frontier solvers whose rounds the serial kernel
// runs, each at the graph's average weight as delta (self-tuning starts
// there and steers toward its set-point).
var solvers = []struct {
	name  string
	solve func(g *graph.Graph, opt *sssp.Options) (sssp.Result, error)
}{
	{"selftuning", func(g *graph.Graph, opt *sssp.Options) (sssp.Result, error) {
		return core.Solve(g, 0, core.Config{P: 1000}, opt)
	}},
	{"nearfar", func(g *graph.Graph, opt *sssp.Options) (sssp.Result, error) {
		return sssp.NearFar(g, 0, avgDelta(g), opt)
	}},
	{"deltastep", func(g *graph.Graph, opt *sssp.Options) (sssp.Result, error) {
		return sssp.DeltaStepping(g, 0, avgDelta(g), opt)
	}},
}

func avgDelta(g *graph.Graph) graph.Dist { return max(graph.Dist(g.AvgWeight()), 1) }

// TestSerialKernelMatchesAtomic is the differential test of the
// single-writer advance: before every round of whole self-tuning, near-far
// and delta-stepping solves (the last covering the light and heavy weight
// ranges), the round is run from the current distances through the serial
// kernel and through the atomic vertex kernel, both on one goroutine. The
// updates in emission order (so X2), the edge count, the filter output and
// the distances must all be identical.
func TestSerialKernelMatchesAtomic(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"road": gen.CalLike(0.005, 3),
		"rmat": gen.RMAT(11, 8, 0.57, 0.19, 0.19, 1, 99, 9),
	}
	defer sssp.SetRoundHook(nil)
	for gname, g := range graphs {
		for _, s := range solvers {
			var rounds, light, heavy int
			var firstErr error
			sssp.SetRoundHook(func(kn *sssp.Kernels, front []graph.VID, wlo, whi graph.Weight) {
				rounds++
				if whi < math.MaxInt32 {
					light++
				}
				if wlo > 1 {
					heavy++
				}
				if err := sssp.CompareKernels(kn.G, kn.Dist, front, wlo, whi); err != nil && firstErr == nil {
					firstErr = err
					t.Errorf("%s %s round %d (|front|=%d, weights [%d,%d]): %v",
						gname, s.name, rounds, len(front), wlo, whi, err)
				}
			})
			if _, err := s.solve(g, &sssp.Options{}); err != nil {
				t.Fatalf("%s %s: %v", gname, s.name, err)
			}
			if rounds < 10 {
				t.Errorf("%s %s: only %d rounds checked", gname, s.name, rounds)
			}
			if s.name == "deltastep" && (light == 0 || heavy == 0) {
				t.Errorf("%s deltastep: %d light and %d heavy rounds, want both", gname, light, heavy)
			}
		}
	}
}

// TestWorkerCountDeterminism checks that solves made entirely of serial
// rounds give bit-identical results at every pool size. Every round of
// these solves on a Cal-like input stays under the single-writer cutoff,
// so no pool launch happens and the worker count cannot change the
// relaxation order. Parallel rounds (large frontiers, hub graphs) remain
// schedule-dependent in X2 and so in simulated time.
func TestWorkerCountDeterminism(t *testing.T) {
	g := gen.CalLike(0.02, 7)
	for _, s := range solvers {
		var base sssp.Result
		for _, ps := range []int{1, 2, 4} {
			pool := parallel.NewPool(ps)
			st := new(obs.PoolStats)
			pool.Observe(st)
			res, err := s.solve(g, &sssp.Options{Pool: pool, Machine: sim.NewMachine(sim.TK1())})
			pool.Close()
			if err != nil {
				t.Fatalf("%s pool %d: %v", s.name, ps, err)
			}
			if n := st.Launches(); n != 0 {
				t.Errorf("%s pool %d: %d pool launches, want every round serial", s.name, ps, n)
			}
			if ps == 1 {
				base = res
				continue
			}
			switch {
			case !slices.Equal(res.Dist, base.Dist):
				t.Errorf("%s pool %d: distances differ from pool 1", s.name, ps)
			case res.Iterations != base.Iterations || res.EdgesRelaxed != base.EdgesRelaxed || res.Updates != base.Updates:
				t.Errorf("%s pool %d: iterations/edges/updates %d/%d/%d, pool 1 %d/%d/%d", s.name, ps,
					res.Iterations, res.EdgesRelaxed, res.Updates, base.Iterations, base.EdgesRelaxed, base.Updates)
			case res.SimTime != base.SimTime || math.Float64bits(res.EnergyJ) != math.Float64bits(base.EnergyJ):
				t.Errorf("%s pool %d: sim %v / %v J, pool 1 %v / %v J", s.name, ps,
					res.SimTime, res.EnergyJ, base.SimTime, base.EnergyJ)
			}
		}
	}
}
