package main

import (
	"fmt"
	"runtime"
	"time"
)

// untracedRun accumulates the untraced run graph by graph: one summary per
// graph for each solve figure, plus allocation and solve totals.
type untracedRun struct {
	wall, sim, mj, iters, relaxed []float64 // per graph
	rel                           []float64 // per graph
	allWall                       []float64 // every timed solve, for the tail
	allocBytes                    uint64
	solves                        int
}

// measure runs untraced closed-loop solves of x for d after one warm-up
// solve, checked like the others, that brings pooled scratch and the heap
// to their steady state. Each solve follows a run of the reference kernel,
// whose time divides the solve's. It keeps the graph's median of each
// figure (the mean for iterations: a median of counts as small as 11-13
// rounds to half-steps).
func (e *untracedRun) measure(in *instance, x *input, d time.Duration, t *tally) {
	_, _, err := in.run(x, in.cfg)
	t.count(err)
	var wall, rel, sim, mj, iters, relaxed []float64
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	solves := 0
	for deadline := time.Now().Add(d); solves == 0 || time.Now().Before(deadline); solves++ {
		k := x.kernel.run()
		out, w, err := in.run(x, in.cfg)
		t.count(err)
		if out == nil {
			continue
		}
		wall = append(wall, ms(w))
		rel = append(rel, float64(w)/float64(k))
		sim = append(sim, ms(out.SimTime))
		mj = append(mj, out.EnergyJ*1e3)
		iters = append(iters, float64(out.Iterations))
		relaxed = append(relaxed, float64(out.EdgesRelaxed)/float64(x.g.NumEdges()))
	}
	runtime.ReadMemStats(&m1)
	e.allocBytes += m1.TotalAlloc - m0.TotalAlloc
	e.solves += solves
	e.allWall = append(e.allWall, wall...)
	if len(wall) == 0 {
		return // every solve failed; the tally carries it
	}
	e.wall = append(e.wall, median(wall))
	e.rel = append(e.rel, median(rel))
	e.sim = append(e.sim, median(sim))
	e.mj = append(e.mj, median(mj))
	e.iters = append(e.iters, mean(iters))
	e.relaxed = append(e.relaxed, median(relaxed))
}

// metrics returns the end-to-end metrics: each solve figure is the mean
// over the run's graphs of the per-graph summary, so every graph weighs the
// same however fast it solves.
func (e *untracedRun) metrics(in *instance, t *tally) map[string]float64 {
	return map[string]float64{
		"setup_s":            median(in.setupS),
		"solve_rel_p50":      mean(e.rel),
		"sim_ms":             mean(e.sim),
		"energy_mj":          mean(e.mj),
		"iterations":         mean(e.iters),
		"relaxed_per_edge":   mean(e.relaxed),
		"alloc_mb_per_solve": float64(e.allocBytes) / 1e6 / float64(e.solves),
		"correct_frac":       1 - t.failedFrac(),
	}
}

// summary is the "#" line of an untraced run.
func (e *untracedRun) summary() string {
	return fmt.Sprintf("# solves=%d solve_ms_p50=%.3f (per graph %.3f), all solves p50=%.3f %s",
		len(e.allWall), mean(e.wall), e.wall, median(e.allWall), tailText(e.allWall))
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// tailText renders the highest reportable percentile of xs, or says why
// there is none.
func tailText(xs []float64) string {
	v, pct, ok := tail(xs)
	if !ok {
		return fmt.Sprintf("tail=n/a (n=%d < %d)", len(xs), 2*minTail)
	}
	return fmt.Sprintf("p%.0f=%.3f (n=%d)", pct, v, len(xs))
}
