package core

import (
	"fmt"
	"math"
	"time"

	"energysssp/internal/flight"
	"energysssp/internal/frontier"
	"energysssp/internal/graph"
	"energysssp/internal/obs"
	"energysssp/internal/parallel"
	"energysssp/internal/sssp"
)

// Config parameterizes the self-tuning solver.
type Config struct {
	// P is the parallelism set-point: the controller steers the available
	// parallelism (X² per iteration) to values at or below P. Required.
	P float64
	// InitialDelta seeds the threshold; 0 selects the graph's average
	// edge weight, the same anchor the paper uses for the first far-queue
	// partition boundary.
	InitialDelta graph.Dist
	// BootstrapIters overrides the Eq. 8 bootstrap window (default 5).
	BootstrapIters int
	// ControllerCost is the host time charged per iteration for the
	// controller's own work (default 2µs, consistent with the paper's
	// measured 50–200µs per second of runtime at tens of thousands of
	// iterations per second).
	ControllerCost time.Duration
	// DisablePartitioning forces a single unbounded far partition; used
	// by the ablation benches to measure what Eq. 7 partitioning buys.
	DisablePartitioning bool
	// Policy overrides the delta policy. Nil selects the paper's
	// Controller at set-point P; ablations and fuzz tests inject
	// alternatives (OneShot, adversarial policies). When a Policy is
	// supplied, P is not required.
	Policy Policy
}

func (c Config) withDefaults(g *graph.Graph) Config {
	if c.InitialDelta <= 0 {
		c.InitialDelta = graph.Dist(math.Max(1, math.Round(g.AvgWeight())))
	}
	if c.BootstrapIters <= 0 {
		c.BootstrapIters = 5
	}
	if c.ControllerCost <= 0 {
		c.ControllerCost = 2 * time.Microsecond
	}
	return c
}

// Solve runs the self-tuning near-far SSSP from src. The returned result's
// distances are exact shortest paths (the controller changes only the visit
// schedule, never the relaxation semantics); the profile in opt, when
// present, records the controlled parallelism trace.
func Solve(g *graph.Graph, src graph.VID, cfg Config, opt *sssp.Options) (sssp.Result, error) {
	res, _, err := solve(g, src, cfg, opt, false)
	return res, err
}

// ControllerOverhead reports the wall-clock controller cost of a run, for
// the Section 5.2 overhead experiment.
type ControllerOverhead struct {
	// ControllerTime is the host time spent inside the run's policy calls
	// (Observe, NextDelta, SetApplied, MaintainBoundaries).
	ControllerTime time.Duration
	// TotalTime is the host time of the whole solve.
	TotalTime time.Duration
}

// SolveInstrumented is Solve plus the measured controller overhead.
func SolveInstrumented(g *graph.Graph, src graph.VID, cfg Config, opt *sssp.Options) (sssp.Result, ControllerOverhead, error) {
	start := time.Now()
	res, ctrl, err := solve(g, src, cfg, opt, true)
	total := time.Since(start)
	if err != nil {
		return res, ControllerOverhead{}, err
	}
	return res, ControllerOverhead{ControllerTime: ctrl, TotalTime: total}, nil
}

// stopwatch accumulates host time over start/stop pairs when on; off, it
// never reads the clock.
type stopwatch struct {
	on    bool
	t     time.Time
	total time.Duration
}

func (w *stopwatch) start() {
	if w.on {
		w.t = time.Now()
	}
}

func (w *stopwatch) stop() {
	if w.on {
		w.total += time.Since(w.t)
	}
}

// solve is Solve; with timed set it also returns the host time spent in
// the policy's calls.
func solve(g *graph.Graph, src graph.VID, cfg Config, opt *sssp.Options, timed bool) (sssp.Result, time.Duration, error) {
	if opt == nil {
		opt = &sssp.Options{}
	}
	if cfg.P < 1 && cfg.Policy == nil {
		return sssp.Result{}, 0, fmt.Errorf("core: set-point P must be >= 1, got %g", cfg.P)
	}
	if src < 0 || int(src) >= g.NumVertices() {
		return sssp.Result{}, 0, fmt.Errorf("%w: %d not in [0,%d)", sssp.ErrSource, src, g.NumVertices())
	}
	cfg = cfg.withDefaults(g)

	start := time.Now()
	var startSim time.Duration
	var startJ float64
	if opt.Machine != nil {
		startSim, startJ = opt.Machine.Now(), opt.Machine.Energy()
	}

	pool := opt.Pool
	if pool == nil {
		pool = parallel.NewPool(1)
	}
	dist := make([]graph.Dist, g.NumVertices())
	for i := range dist {
		dist[i] = graph.Inf
	}
	dist[src] = 0
	kn := sssp.NewKernels(g, pool, opt.Machine, dist)
	kn.Force = opt.Advance
	sc, ownScope := opt.AcquireScope("selftuning")
	if ownScope {
		defer sc.Close()
	}
	kn.Observe(sc)
	defer kn.Release()
	sc.SetStrategy("partitioned")
	sc.Live().SetSetPoint(int64(cfg.P))
	tr := kn.Trace() // nil-safe when no observer is attached
	sink := kn.IterSink(opt, sc, cfg.P)

	policy := cfg.Policy
	if policy == nil {
		avgDeg := float64(g.NumEdges()) / math.Max(1, float64(g.NumVertices()))
		ctrl := NewController(cfg.P, avgDeg, 1)
		ctrl.BootstrapIters = cfg.BootstrapIters
		policy = ctrl
	}
	// Hoisted out of the loop so the steady state performs no type
	// assertions.
	var fpol flightRecording
	if fp, ok := policy.(flightRecording); ok {
		fpol = fp
	}
	bm, _ := policy.(boundaryMaintainer)
	if cfg.DisablePartitioning {
		bm = nil
	}

	far := kn.Partitioned(cfg.InitialDelta)
	thr := float64(cfg.InitialDelta)
	front, _ := kn.Buffers()
	front = append(front, src)

	// Flight recorder: seed the header before the first Observe so replay
	// can reconstruct the identical initial controller.
	if frec := opt.Flight; frec != nil {
		fh := flight.Header{
			Algorithm:    "policy",
			Vertices:     int64(g.NumVertices()),
			Edges:        int64(g.NumEdges()),
			Source:       int64(src),
			InitialDelta: float64(cfg.InitialDelta),
		}
		if fpol != nil {
			fh.Algorithm = "selftuning"
			fpol.flightSeed(&fh)
		}
		frec.SetHeader(fh)
	}
	var fr flight.Record

	var res sssp.Result
	guard := opt.IterGuard(g)
	ctrlWall := stopwatch{on: timed}
	spSolve := tr.BeginSolve()
	defer func() { spSolve.End(int64(res.Iterations)) }()

	for len(front) > 0 {
		if res.Iterations++; res.Iterations > guard {
			return res, ctrlWall.total, sssp.ErrLivelock
		}
		spIter := tr.BeginIter(res.Iterations - 1)
		x1 := len(front)
		adv := kn.Advance(front)
		res.EdgesRelaxed += adv.Edges
		res.Updates += int64(adv.X2)

		// bisect-frontier: split the filter output around the threshold.
		obs.ApplyPhaseLabel(obs.PhaseRebalance)
		spB := tr.Begin(obs.PhaseRebalance)
		thrD := distOf(thr)
		near := front[:0]
		for _, v := range adv.Out {
			if dist[v] <= thrD {
				near = append(near, v)
			} else {
				far.Push(v, dist[v])
			}
		}
		simB := kn.SimNow()
		durB := kn.ChargeBisect(len(adv.Out))
		spB.EndSim(int64(len(adv.Out)), simB, durB)
		x4 := len(near)

		// Controller step (host side).
		obs.ApplyPhaseLabel(obs.PhaseController)
		spC := tr.Begin(obs.PhaseController)
		q := QueueState{X4: x4, Delta: thr, FarLen: far.Len()}
		if pb, ps, ok := firstNonEmptyPartition(far); ok {
			q.PartBound, q.PartSize = pb, ps
		}
		ctrlWall.start()
		policy.Observe(x1, adv.X2)
		rawThr := policy.NextDelta(q)
		ctrlWall.stop()
		newThr := rawThr
		if newThr < 1 {
			newThr = 1 // defend against hostile policies
		}
		if newThr > float64(graph.Inf) {
			newThr = float64(graph.Inf)
		}

		// Rebalancer: realize the new threshold by moving vertices
		// between frontier and far queue.
		obs.ApplyPhaseLabel(obs.PhaseRebalance)
		front = near
		if newThr > thr {
			front = far.PopBelow(distOf(newThr), dist, front)
		} else if newThr < thr {
			newD := distOf(newThr)
			kept := front[:0]
			for _, v := range front {
				if dist[v] <= newD {
					kept = append(kept, v)
				} else {
					far.Push(v, dist[v])
				}
			}
			front = kept
		}
		appliedDelta := newThr - thr
		thr = newThr

		// If the frontier drained, jump to the next populated region —
		// the analogue of the baseline's phase advance. The jump is part
		// of the applied Δδ so the BISECT-MODEL sees the true change.
		jumpMin := int64(-1)
		if len(front) == 0 && far.Len() > 0 {
			minD := far.MinDist(dist)
			jumpMin = int64(minD)
			if minD < graph.Inf {
				if float64(minD) > thr {
					appliedDelta += float64(minD) - thr
					thr = float64(minD)
				}
				front = far.PopBelow(distOf(thr), dist, front)
			} else {
				// Stale-only content: one cleanup scan empties it.
				front = far.PopBelow(graph.Inf, dist, front)
			}
		}
		obs.ApplyPhaseLabel(obs.PhaseController)
		ctrlWall.start()
		policy.SetApplied(appliedDelta, float64(x4))
		if bm != nil {
			bm.MaintainBoundaries(far, thr)
		}
		ctrlWall.stop()
		scanned := far.ScannedAndReset()
		simQ := kn.SimNow()
		durQ := kn.ChargeFarQueue(scanned)
		tr.Mark(obs.PhaseRebalance, int64(scanned), simQ, durQ)
		simH := kn.SimNow()
		kn.ChargeHost(cfg.ControllerCost)
		spC.EndSim(int64(adv.X2), simH, kn.SimNow()-simH)

		if sink != nil {
			// The decision inputs (q, the threshold entering it, the raw
			// NextDelta output) and the model state after Observe and
			// NextDelta — SetApplied moves no estimate — are exactly the
			// checkpoint replay re-executes and compares against.
			fr = flight.Record{
				K:  int64(res.Iterations - 1),
				X1: int64(x1), X2: int64(adv.X2), X3: int64(len(adv.Out)), X4: int64(x4),
				FarLen: int64(q.FarLen), PartBound: int64(q.PartBound), PartSize: int64(q.PartSize),
				FarSize:  int64(far.Len()),
				NumParts: int64(far.NumPartitions()),
				DeltaIn:  q.Delta, RawDelta: rawThr, DeltaOut: thr, AppliedDelta: appliedDelta,
				JumpMin:      jumpMin,
				EdgeBalanced: adv.EdgeBalanced,
			}
			nb := 0
			for i := 0; i < far.NumPartitions() && nb < flight.MaxBounds; i++ {
				if b := far.Bound(i); b < graph.Inf {
					fr.Bounds[nb] = int64(b)
					nb++
				}
			}
			if fpol != nil {
				fpol.flightModels(&fr)
			}
			sink.Emit(&fr, adv.Edges)
		}
		spIter.End(int64(adv.X2))
	}

	obs.ClearPhaseLabel() // don't bleed the last phase into the caller's samples
	kn.KeepBuffers(front, nil)
	res.Dist = dist
	sssp.FinishResult(&res, opt, start, startSim, startJ)
	return res, ctrlWall.total, nil
}

func distOf(x float64) graph.Dist {
	if x >= float64(graph.Inf) {
		return graph.Inf
	}
	if x < 1 {
		return 1
	}
	return graph.Dist(x)
}

func firstNonEmptyPartition(q *frontier.Partitioned) (graph.Dist, int, bool) {
	for i := 0; i < q.NumPartitions(); i++ {
		if s := q.PartSize(i); s > 0 {
			return q.Bound(i), s, true
		}
	}
	return 0, 0, false
}
