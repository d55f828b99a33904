package sssp

import (
	"time"

	"energysssp/internal/flight"
	"energysssp/internal/metrics"
	"energysssp/internal/obs"
	"energysssp/internal/sim"
)

// IterSink is the single consumer of a solver loop's per-iteration record.
// The near-far and self-tuning loops fill one flight.Record per iteration
// and hand it to Emit, which derives every per-iteration view from it: the
// flight-ring append (and through it the online detector), the profile
// row, the scope's live stats, and the controller-health gauges. A solve
// with no view attached gets a nil sink and skips the fill entirely.
type IterSink struct {
	flight  *flight.Recorder
	profile *metrics.Profile
	live    *obs.SolveStats
	health  *health

	mach      *sim.Machine
	startSim  time.Duration
	startJ    float64
	prevSimNs int64 // previous record's SimTimeNs, for the profile's AvgWatts
	prevJ     float64
}

// IterSink returns the solve's sink for opt's views and the scope sc, or
// nil when neither a flight recorder, a profile nor a scope is attached.
// The sink lives in the Kernels, so it costs the solve no allocation.
// setPoint is the controller's parallelism set-point; a value below 1
// (near-far, set-point-free policies) registers no controller-health
// gauges. Call it before the solve's first kernel charge: the records'
// cumulative simulated cost is measured from here.
func (kn *Kernels) IterSink(opt *Options, sc *obs.Scope, setPoint float64) *IterSink {
	if opt.Flight == nil && opt.Profile == nil && sc == nil {
		return nil
	}
	kn.sink = IterSink{
		flight:  opt.Flight,
		profile: opt.Profile,
		live:    sc.Live(),
		health:  newHealth(sc.Registry(), setPoint),
		mach:    opt.Machine,
	}
	if kn.sink.mach != nil {
		kn.sink.startSim, kn.sink.startJ = kn.sink.mach.Now(), kn.sink.mach.Energy()
	}
	return &kn.sink
}

// Emit completes rec with the cumulative simulated cost and hands it,
// with the iteration's relaxed-edge count, to every attached view. A nil
// sink is a no-op.
func (s *IterSink) Emit(rec *flight.Record, edges int64) {
	if s == nil {
		return
	}
	if s.mach != nil {
		rec.SimTimeNs = int64(s.mach.Now() - s.startSim)
		rec.EnergyJ = s.mach.Energy() - s.startJ
	}
	s.flight.Append(rec)
	if s.profile != nil {
		st := metrics.IterStat{
			K: int(rec.K), X1: int(rec.X1), X2: int(rec.X2), X3: int(rec.X3), X4: int(rec.X4),
			Delta: rec.DeltaOut, DHat: rec.D, AlphaHat: rec.Alpha,
			FarSize: int(rec.FarSize), Edges: edges,
			SimTime: time.Duration(rec.SimTimeNs), EnergyJ: rec.EnergyJ,
			EdgeBalanced: rec.EdgeBalanced,
		}
		if dt := time.Duration(rec.SimTimeNs - s.prevSimNs); dt > 0 {
			st.AvgWatts = (rec.EnergyJ - s.prevJ) / dt.Seconds()
		}
		s.profile.Append(st)
	}
	s.prevSimNs, s.prevJ = rec.SimTimeNs, rec.EnergyJ
	s.live.Iteration(rec.K, rec.X1, rec.FarSize, rec.X2, rec.DeltaOut, rec.SimTimeNs)
	s.health.observe(rec)
}

// health publishes the controller-health gauges, folding each record
// through metrics.HealthFold against the solve's set-point. A nil *health
// is a no-op.
type health struct {
	p    float64
	fold metrics.HealthFold

	trackErr     *obs.Gauge
	trackErrMean *obs.Gauge
	dhat         *obs.Gauge
	alphahat     *obs.Gauge
	convIter     *obs.Gauge
}

// newHealth registers the controller-health gauges on a solve's registry.
// The gauges chain to the fleet registry (last-write-wins), so a single
// solve still exposes the bare sssp_controller_* families at the fleet
// level. It returns nil when there is no registry or no meaningful
// set-point.
func newHealth(reg *obs.Registry, setPoint float64) *health {
	if reg == nil || setPoint < 1 {
		return nil
	}
	h := &health{p: setPoint}
	reg.Gauge("sssp_controller_set_point",
		"parallelism set-point P the controller steers X2 toward").Set(setPoint)
	h.trackErr = reg.Gauge("sssp_controller_tracking_error",
		"last iteration's set-point tracking error |X2-P|/P")
	h.trackErrMean = reg.Gauge("sssp_controller_tracking_error_mean",
		"mean set-point tracking error |X2-P|/P over the solve")
	h.dhat = reg.Gauge("sssp_controller_d_hat",
		"ADVANCE-MODEL degree estimate d")
	h.alphahat = reg.Gauge("sssp_controller_alpha_hat",
		"BISECT-MODEL density estimate alpha")
	h.convIter = reg.Gauge("sssp_controller_model_convergence_iters",
		"iteration at which both model estimates first moved <1% (-1: not yet)")
	h.convIter.Set(-1)
	return h
}

// observe updates the gauges for one record. The model gauges move only
// when the record carries model estimates.
func (h *health) observe(rec *flight.Record) {
	if h == nil {
		return
	}
	converged := h.fold.ConvergenceIter() >= 0
	h.fold.Add(int(rec.K), int(rec.X2), h.p, rec.D, rec.Alpha)
	last, mean := h.fold.TrackingError()
	h.trackErr.Set(last)
	h.trackErrMean.Set(mean)
	if rec.D <= 0 || rec.Alpha <= 0 {
		return
	}
	h.dhat.Set(rec.D)
	h.alphahat.Set(rec.Alpha)
	if k := h.fold.ConvergenceIter(); !converged && k >= 0 {
		h.convIter.Set(float64(k))
	}
}
