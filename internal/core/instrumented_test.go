package core

import (
	"testing"
	"time"

	"energysssp/internal/gen"
	"energysssp/internal/metrics"
	"energysssp/internal/sssp"
)

// TestSolveInstrumented covers the controller-overhead measurement path:
// the re-measured controller time must be positive, bounded by the total,
// and small relative to it (the paper's Section 5.2 claim is controller
// cost in the tens-of-microseconds-per-second range; we assert the far
// looser property that it is a minority of the solve).
func TestSolveInstrumented(t *testing.T) {
	g := gen.CalLike(0.01, 42)
	prof := &metrics.Profile{}
	res, ov, err := SolveInstrumented(g, 0, Config{P: 300}, &sssp.Options{Profile: prof})
	if err != nil {
		t.Fatal(err)
	}
	assertSameDistances(t, g, 0, res.Dist, "instrumented solve")
	if res.Iterations <= 0 || prof.Len() != res.Iterations {
		t.Fatalf("iterations=%d profile=%d", res.Iterations, prof.Len())
	}
	if ov.TotalTime <= 0 {
		t.Fatalf("total time %v, want > 0", ov.TotalTime)
	}
	if ov.ControllerTime <= 0 || ov.ControllerTime > ov.TotalTime {
		t.Fatalf("controller time %v not in (0, %v]", ov.ControllerTime, ov.TotalTime)
	}
	perIter := ov.ControllerTime / time.Duration(res.Iterations)
	if perIter > time.Millisecond {
		t.Fatalf("controller overhead %v per iteration; the O(1) decision should be microseconds", perIter)
	}
}

// TestSolveInstrumentedErrors: a failing solve must propagate its error and
// report no overhead (measuring a run that never happened would be noise).
func TestSolveInstrumentedErrors(t *testing.T) {
	g := gen.Grid(5, 5, 1, 9, 1)
	if _, ov, err := SolveInstrumented(g, 999, Config{P: 10}, nil); err == nil {
		t.Fatal("out-of-range source accepted")
	} else if ov.ControllerTime != 0 || ov.TotalTime != 0 {
		t.Fatalf("failed solve reported overhead %+v", ov)
	}
	if _, _, err := SolveInstrumented(g, 0, Config{}, nil); err == nil {
		t.Fatal("missing set-point accepted")
	}
}

// spinPolicy is the paper's Controller with a fixed host-time cost added to
// every NextDelta, so the policy time of a run is known from below.
type spinPolicy struct {
	*Controller
	spin time.Duration
}

func (p *spinPolicy) NextDelta(q QueueState) float64 {
	for start := time.Now(); time.Since(start) < p.spin; {
	}
	return p.Controller.NextDelta(q)
}

// TestSolveInstrumentedMeasuresPolicy: ControllerTime is the host time the
// run's own policy spent, so a policy that busy-waits in every NextDelta
// must be reported at no less than iterations × that wait.
func TestSolveInstrumentedMeasuresPolicy(t *testing.T) {
	g := gen.Grid(10, 10, 1, 20, 46)
	const spin = 50 * time.Microsecond
	pol := &spinPolicy{Controller: NewController(100, 4, 1), spin: spin}
	res, ov, err := SolveInstrumented(g, 0, Config{Policy: pol}, nil)
	if err != nil {
		t.Fatal(err)
	}
	assertSameDistances(t, g, 0, res.Dist, "spinning policy")
	if floor := time.Duration(res.Iterations) * spin; ov.ControllerTime < floor {
		t.Fatalf("controller time %v over %d iterations, want >= %v", ov.ControllerTime, res.Iterations, floor)
	}
	if ov.ControllerTime > ov.TotalTime {
		t.Fatalf("controller time %v exceeds total %v", ov.ControllerTime, ov.TotalTime)
	}
}
