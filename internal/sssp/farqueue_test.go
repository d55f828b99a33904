package sssp

import (
	"testing"

	"energysssp/internal/flight"
	"energysssp/internal/frontier"
	"energysssp/internal/gen"
	"energysssp/internal/graph"
	"energysssp/internal/obs"
	"energysssp/internal/parallel"
	"energysssp/internal/sim"
)

func TestParseFarQueue(t *testing.T) {
	for _, want := range []FarQueueStrategy{FarAuto, FarFlat, FarLazy, FarRho} {
		got, err := ParseFarQueue(want.String())
		if err != nil || got != want {
			t.Fatalf("round trip %v: got %v, err %v", want, got, err)
		}
	}
	if got, err := ParseFarQueue(""); err != nil || got != FarAuto {
		t.Fatalf("empty: got %v, err %v", got, err)
	}
	if _, err := ParseFarQueue("bogus"); err == nil {
		t.Fatal("bogus strategy accepted")
	}
}

// farQueueTestGraphs is the strategy-differential input set: the shared
// small-graph family plus road-network and scale-free dataset substitutes,
// so every queue strategy is exercised on both weight regimes the paper
// evaluates (long-tailed road distances, hub-heavy small-world distances).
func farQueueTestGraphs(t *testing.T) []*graph.Graph {
	t.Helper()
	return append(testGraphs(t),
		gen.CalLike(0.004, 8),
		gen.WikiLike(0.003, 9),
	)
}

// Every far-queue strategy must produce bit-identical distance vectors:
// the strategies reorder and batch relaxations but never approximate.
func TestNearFarStrategiesBitIdentical(t *testing.T) {
	pool := parallel.NewPool(4)
	defer pool.Close()
	for _, g := range farQueueTestGraphs(t) {
		avg := graph.Dist(g.AvgWeight())
		if avg < 1 {
			avg = 1
		}
		for _, delta := range []graph.Dist{1, avg, 16 * avg} {
			ref, err := NearFar(g, 0, delta, &Options{Pool: pool, FarQueue: FarFlat})
			if err != nil {
				t.Fatalf("%v flat δ=%d: %v", g, delta, err)
			}
			assertSameDistances(t, g, 0, ref.Dist, "nearfar-flat/"+g.Name())
			for _, s := range []FarQueueStrategy{FarLazy, FarRho} {
				res, err := NearFar(g, 0, delta, &Options{Pool: pool, FarQueue: s})
				if err != nil {
					t.Fatalf("%v %v δ=%d: %v", g, s, delta, err)
				}
				for v := range res.Dist {
					if res.Dist[v] != ref.Dist[v] {
						t.Fatalf("%v δ=%d: %v dist[%d] = %d, flat %d",
							g, delta, s, v, res.Dist[v], ref.Dist[v])
					}
				}
			}
		}
	}
}

// The fused lazy-bucket DeltaStepping path must match the textbook flat
// bucket array bit for bit, at deltas spanning all-light to all-heavy.
func TestDeltaSteppingFusedBitIdentical(t *testing.T) {
	pool := parallel.NewPool(4)
	defer pool.Close()
	for _, g := range farQueueTestGraphs(t) {
		avg := graph.Dist(g.AvgWeight())
		if avg < 1 {
			avg = 1
		}
		for _, delta := range []graph.Dist{1, avg, 64 * avg} {
			ref, err := DeltaStepping(g, 0, delta, &Options{Pool: pool, FarQueue: FarFlat})
			if err != nil {
				t.Fatalf("%v flat δ=%d: %v", g, delta, err)
			}
			assertSameDistances(t, g, 0, ref.Dist, "deltastep-flat/"+g.Name())
			res, err := DeltaStepping(g, 0, delta, &Options{Pool: pool}) // auto → fused lazy
			if err != nil {
				t.Fatalf("%v fused δ=%d: %v", g, delta, err)
			}
			for v := range res.Dist {
				if res.Dist[v] != ref.Dist[v] {
					t.Fatalf("%v δ=%d: fused dist[%d] = %d, flat %d",
						g, delta, v, res.Dist[v], ref.Dist[v])
				}
			}
		}
	}
}

// Simulated time and energy are part of the strategy contract: each
// strategy charges the far-queue kernel per scanned entry, so attaching
// obs + flight (host-side only) must not move them, and a strategy's
// sim numbers must be deterministic across runs. Single-threaded: with a
// contended pool, intra-advance relaxations propagate opportunistically,
// so the phase schedule itself is timing-dependent.
func TestFarQueueSimChargingDeterministic(t *testing.T) {
	g := gen.RMAT(10, 8, 0.57, 0.19, 0.19, 1, 99, 21)
	for _, s := range []FarQueueStrategy{FarFlat, FarLazy, FarRho} {
		run := func(o *obs.Observer, rec *flight.Recorder) Result {
			mach := sim.NewMachine(sim.TK1())
			res, err := NearFar(g, 0, 32, &Options{Machine: mach, FarQueue: s, Obs: o, Flight: rec})
			if err != nil {
				t.Fatalf("%v: %v", s, err)
			}
			return res
		}
		plain := run(nil, nil)
		again := run(nil, nil)
		inst := run(obs.New(obs.DefaultTraceEvents), flight.NewRecorder(0))
		if plain.SimTime != again.SimTime || plain.EnergyJ != again.EnergyJ {
			t.Fatalf("%v: sim cost not deterministic: %v/%v vs %v/%v",
				s, plain.SimTime, plain.EnergyJ, again.SimTime, again.EnergyJ)
		}
		if inst.SimTime != plain.SimTime || inst.EnergyJ != plain.EnergyJ {
			t.Fatalf("%v: obs+flight moved sim cost: %v/%v vs %v/%v",
				s, inst.SimTime, inst.EnergyJ, plain.SimTime, plain.EnergyJ)
		}
	}
}

// Concurrent stress: every strategy under a contended pool, full graph
// family. Run with -race to exercise the far-queue interaction with the
// parallel advance kernels.
func TestFarQueueConcurrentStress(t *testing.T) {
	pool := parallel.NewPool(8)
	defer pool.Close()
	g := gen.RMAT(12, 8, 0.57, 0.19, 0.19, 1, 99, 33)
	for _, s := range []FarQueueStrategy{FarFlat, FarLazy, FarRho} {
		res, err := NearFar(g, 0, 25, &Options{Pool: pool, FarQueue: s})
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		assertSameDistances(t, g, 0, res.Dist, "stress-nearfar-"+s.String())
		dres, err := DeltaStepping(g, 0, 25, &Options{Pool: pool, FarQueue: s})
		if err != nil {
			t.Fatalf("deltastep %v: %v", s, err)
		}
		assertSameDistances(t, g, 0, dres.Dist, "stress-deltastep-"+s.String())
	}
}

// TestLazyFarSteadyStateAllocs is the lazy far queue's allocation gate:
// after one warm-up cycle grows the slabs, a full reset → push → MinDist →
// batch-extract cycle (overflow redistribution included) must allocate
// nothing. And on whole solves, attaching obs + flight must add zero
// allocations over the plain run — the same default-on observability
// invariant the advance kernels hold (TestObsSteadyStateAllocs).
func TestLazyFarSteadyStateAllocs(t *testing.T) {
	n := 4096
	dist := make([]graph.Dist, n)
	for v := range dist {
		dist[v] = graph.Dist(v + 1)
		if v%16 == 0 {
			// Far beyond the ring window at width 1: exercises the
			// overflow slab and its redistribution.
			dist[v] = graph.Dist(frontier.DefaultLazySlots + 10*n + v)
		}
	}
	out := make([]graph.VID, 0, n)
	q := frontier.NewLazy(1, 0)
	cycle := func() {
		q.Reset(1, 0)
		for v := 0; v < n; v++ {
			q.Push(graph.VID(v), dist[v])
		}
		_ = q.MinDist(dist)
		o := out[:0]
		for q.Len() > 0 {
			o, _, _ = q.ExtractBatch(256, dist, o)
		}
		if len(o) != n {
			t.Fatalf("cycle extracted %d of %d", len(o), n)
		}
	}
	cycle() // grow the slabs
	if allocs := testing.AllocsPerRun(10, cycle); allocs != 0 {
		t.Errorf("lazy queue cycle allocates %.1f per run, want 0", allocs)
	}

	g := gen.RMAT(10, 8, 0.57, 0.19, 0.19, 1, 99, 13)
	pool := parallel.NewPool(4)
	defer pool.Close()
	o := obs.New(obs.DefaultTraceEvents)
	rec := flight.NewRecorder(0)
	// Long-running drivers reuse one scope across solves (Options.Scope);
	// that is the steady state this gate protects. Saturate the scope's
	// span budget up front so slab growth — a bounded one-time cost — is
	// excluded and every span call in the measured runs takes the
	// warm-slab or budget-drop path.
	sc := o.NewScope("allocgate")
	defer sc.Close()
	for i := 0; i < obs.DefaultTraceEvents+1; i++ {
		sc.Tracer().Mark(obs.PhaseScan, 0, 0, 0)
	}
	solve := func(sc *obs.Scope, rec *flight.Recorder) {
		if _, err := NearFar(g, 0, 32, &Options{Pool: pool, FarQueue: FarRho, Scope: sc, Flight: rec}); err != nil {
			t.Fatal(err)
		}
	}
	solve(nil, nil)
	solve(sc, rec) // warm both paths
	plain := testing.AllocsPerRun(5, func() { solve(nil, nil) })
	inst := testing.AllocsPerRun(5, func() { solve(sc, rec) })
	if inst > plain {
		t.Errorf("obs+flight solve allocates %.1f per run vs %.1f plain; instrumentation must be allocation-free", inst, plain)
	}
}
