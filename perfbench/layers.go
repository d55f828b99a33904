package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"math"
	"runtime"
	"strconv"
	"strings"
	"time"

	"energysssp"
	"energysssp/internal/graph"
	"energysssp/internal/obs"
	"energysssp/internal/parallel"
	"energysssp/internal/sssp"
)

// layerShare is the part of a traced run spent on whole solves; the rest
// drives single layers from outside.
const layerShare = 0.85

// phaseNames maps each observer phase to the metric prefix of the layer
// that owns it.
var phaseNames = [obs.NumPhases]string{
	obs.PhaseAdvance:    "sssp.advance",
	obs.PhaseFilter:     "sssp.filter",
	obs.PhaseRebalance:  "sssp.rebalance",
	obs.PhaseController: "core.controller",
	obs.PhaseScan:       "parallel.scan",
}

// samples collects one value per solve under each metric name.
type samples map[string][]float64

func (s samples) add(name string, v float64) { s[name] = append(s[name], v) }

// tracedRun accumulates the traced run graph by graph. For each graph, each
// round makes an untraced 2-worker solve, a traced 2-worker solve, an
// untraced 1-worker solve and a second untraced 2-worker solve, so the
// obs-overhead and speedup ratios compare solves made under the same host
// conditions.
type tracedRun struct {
	rec                                                *energysssp.FlightRecorder
	per                                                samples // per traced solve
	wall2, wall1, wallT, usPerIter, watts, gcs, pauses []float64
	schedSpread                                        float64
	lastLog                                            *energysssp.FlightLog
}

func newTracedRun() *tracedRun {
	return &tracedRun{rec: energysssp.NewFlightRecorder(0), per: samples{}}
}

// measure runs rounds on x for d after a warm-up untraced and traced
// solve, checked like every other solve.
func (l *tracedRun) measure(in *instance, x *input, d time.Duration, t *tally) {
	cfg1 := in.cfg
	cfg1.Workers = 1
	_, _, err := in.run(x, in.cfg)
	t.count(err)
	_, _, _, err = in.traced(x, l.rec)
	t.count(err)

	var relaxed []float64 // EdgesRelaxed of every solve of x, all worker counts
	untraced := func(cfg energysssp.RunConfig, walls *[]float64) {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		out, w, err := in.run(x, cfg)
		runtime.ReadMemStats(&m1)
		t.count(err)
		if out == nil {
			return
		}
		*walls = append(*walls, ms(w))
		relaxed = append(relaxed, float64(out.EdgesRelaxed))
		if cfg.Workers == workers {
			l.usPerIter = append(l.usPerIter, float64(w)/1e3/float64(out.Iterations))
			l.watts = append(l.watts, out.AvgPowerW)
			l.gcs = append(l.gcs, float64(m1.NumGC-m0.NumGC))
			l.pauses = append(l.pauses, float64(m1.PauseTotalNs-m0.PauseTotalNs)/1e6)
		}
	}
	runtime.GC()
	for round, deadline := 0, time.Now().Add(d); round == 0 || time.Now().Before(deadline); round++ {
		untraced(in.cfg, &l.wall2)
		vals, w, log, err := in.traced(x, l.rec)
		t.count(err)
		if vals != nil {
			l.wallT = append(l.wallT, w)
			relaxed = append(relaxed, vals["edges_relaxed"])
			for k, v := range vals {
				l.per.add(k, v)
			}
			l.lastLog = log
		}
		untraced(cfg1, &l.wall1)
		untraced(in.cfg, &l.wall2)
	}
	l.schedSpread = max(l.schedSpread, spread(relaxed))
}

// metrics returns the per-layer metrics: medians over the traced solves of
// the per-solve figures, the ratios of the untraced and traced solve
// times, and the layers driven from outside for d, on x (the run's last
// graph) and the last traced flight log.
func (l *tracedRun) metrics(x *input, algo energysssp.Algorithm, d time.Duration) map[string]float64 {
	m := map[string]float64{}
	for k, v := range l.per {
		m[k] = median(v)
	}
	p50 := median(l.wall2)
	m["sssp.solve_ms_p50"] = p50
	m["sssp.us_per_iter"] = median(l.usPerIter)
	m["sssp.solve_ms_tail"], m["sssp.solve_ms_tail_pct"], _ = tail(l.wall2)
	m["sssp.solve_samples"] = float64(len(l.wall2))
	m["sssp.sched_spread"] = l.schedSpread
	// The scratch gauges count process-wide, so the traced window's share
	// is the difference between the first and the last traced solve.
	gets, misses := l.per["scratch_gets"], l.per["scratch_misses"]
	m["sssp.scratch.miss_frac"] = 0
	if n := len(gets); n > 1 {
		m["sssp.scratch.miss_frac"] = safeDiv(misses[n-1]-misses[0], gets[n-1]-gets[0])
	}
	m["parallel.speedup"] = median(l.wall1) / p50
	m["obs.overhead_pct"] = (median(l.wallT)/p50 - 1) * 100
	m["power.avg_w"] = median(l.watts)
	m["runtime.gc_per_solve"] = mean(l.gcs)
	m["runtime.gc_pause_ms"] = mean(l.pauses)

	slot := d / 5
	m["host.ref_kernel_ms"] = timeRefKernel(x, slot)
	for k, v := range advanceThroughput(x, slot) {
		m[k] = v
	}
	m["parallel.pool.dispatch_us"] = poolDispatch(slot)
	m["core.replay_us_per_iter"] = 0
	if algo == energysssp.SelfTuning && l.lastLog != nil {
		m["core.replay_us_per_iter"] = timeReplay(l.lastLog, slot)
	}
	m["flight.write_ms"], m["flight.bytes_per_iter"] = timeFlightWrite(l.lastLog, slot)
	return m
}

// summary is the "#" line of a traced run.
func (l *tracedRun) summary() string {
	return fmt.Sprintf("# solves: untraced 2-worker=%d traced=%d untraced 1-worker=%d; 2-worker solve_ms p50=%.3f %s",
		len(l.wall2), len(l.wallT), len(l.wall1), median(l.wall2), tailText(l.wall2))
}

// traced runs one solve of x with a fresh observer and the shared flight
// recorder attached. It returns the solve's per-layer values, its wall
// time in ms and its flight log; err reports a wrong result or
// instrumentation that does not reconcile with the solve's own figures.
func (in *instance) traced(x *input, rec *energysssp.FlightRecorder) (map[string]float64, float64, *energysssp.FlightLog, error) {
	o := obs.New(0)
	cfg := in.cfg
	cfg.Obs = o
	cfg.FlightLog = rec
	out, wall, err := in.run(x, cfg)
	if out == nil {
		return nil, 0, nil, err
	}
	errs := []error{err}
	v := map[string]float64{"edges_relaxed": float64(out.EdgesRelaxed)}

	var hostNs []int64
	var simNs int64
	var joules float64
	for p := obs.Phase(0); int(p) < obs.NumPhases; p++ {
		tot := o.PhaseTotals(p)
		j := o.Energy().PhaseJoules(p)
		name := phaseNames[p]
		v[name+".host_ms"] = float64(tot.HostNs) / 1e6
		v[name+".sim_ms"] = float64(tot.SimNs) / 1e6
		v[name+".energy_mj"] = j * 1e3
		v[name+".items"] = float64(tot.Items)
		v[name+".calls"] = float64(tot.Count)
		hostNs = append(hostNs, tot.HostNs)
		simNs += tot.SimNs
		joules += j
	}
	v["sssp.advance.edges"] = v["sssp.advance.items"]
	v["sssp.advance.updates_per_edge"] = safeDiv(float64(out.Updates), v["sssp.advance.items"])
	self := selfTime(int64(out.WallTime), hostNs)
	v["sssp.unattributed_ms"] = float64(self) / 1e6
	if self < 0 || out.WallTime > wall {
		errs = append(errs, fmt.Errorf("phase host time %v exceeds solve wall %v (Run wall %v)",
			out.WallTime-time.Duration(self), out.WallTime, wall))
	}
	if simNs != int64(out.SimTime) {
		errs = append(errs, fmt.Errorf("phase sim time sums to %dns, solve reports %dns", simNs, int64(out.SimTime)))
	}
	if math.Abs(joules-out.EnergyJ) > 1e-12*out.EnergyJ {
		errs = append(errs, fmt.Errorf("phase joules sum to %v, solve reports %v", joules, out.EnergyJ))
	}

	ps := o.PoolStats()
	v["parallel.pool.launches"] = float64(ps.Launches())
	v["parallel.pool.busy_ms"] = float64(ps.BusyNs()) / 1e6
	var workerNs int64
	for w := 0; w < ps.Workers(); w++ {
		workerNs += ps.WorkerBusyNs(w)
	}
	v["parallel.pool.idle_frac"] = 0
	if ps.BusyNs() > 0 && ps.Workers() > 0 {
		v["parallel.pool.idle_frac"] = 1 - float64(workerNs)/float64(ps.BusyNs()*int64(ps.Workers()))
	}
	v["obs.spans_dropped"], _ = o.Reg.Value("obs_trace_dropped_total")
	var prom bytes.Buffer
	if err := o.WritePrometheusMatch(&prom, "sssp_scratch_"); err != nil {
		errs = append(errs, err)
	}
	v["scratch_gets"] = gauge(prom.String(), "sssp_scratch_gets_total")
	v["scratch_misses"] = gauge(prom.String(), "sssp_scratch_misses_total")

	l := rec.Log()
	if rep, err := energysssp.ReplayFlight(l); err != nil {
		errs = append(errs, fmt.Errorf("replay: %w", err))
	} else if !rep.OK() {
		errs = append(errs, fmt.Errorf("replay: %d mismatches, first %+v", len(rep.Mismatches), rep.Mismatches[0]))
	}
	for k, x := range flightStats(l, in.w.algo == energysssp.SelfTuning) {
		v[k] = x
	}
	return v, ms(wall), l, errors.Join(errs...)
}

// flightStats derives per-solve figures from a flight log: the share of
// iterations on the edge-balanced advance path, the filter's keep ratio
// X3/X2 and, for the controller, how closely X2 tracked the set-point.
func flightStats(l *energysssp.FlightLog, controlled bool) map[string]float64 {
	var edgePath, x2, x3, errSum float64
	converge := -1
	for _, r := range l.Records {
		if r.EdgeBalanced {
			edgePath++
		}
		x2 += float64(r.X2)
		x3 += float64(r.X3)
		if controlled && r.SetPoint > 0 {
			e := math.Abs(float64(r.X2)-r.SetPoint) / r.SetPoint
			errSum += e
			if converge < 0 && e <= convergeBand {
				converge = int(r.K)
			}
		}
	}
	n := float64(len(l.Records))
	v := map[string]float64{
		"sssp.advance.edge_path_frac": safeDiv(edgePath, n),
		"sssp.filter.keep_frac":       safeDiv(x3, x2),
		"core.tracking_err_mean":      0,
		"core.converge_iter":          0,
	}
	if controlled {
		v["core.tracking_err_mean"] = safeDiv(errSum, n)
		if converge < 0 {
			converge = len(l.Records) // never within the band
		}
		v["core.converge_iter"] = float64(converge)
	}
	return v
}

// convergeBand is the relative distance of X2 from the set-point P at
// which the controller counts as having reached it.
const convergeBand = 0.25

// safeDiv is a/b for the non-negative counts divided here, 0 when b is.
func safeDiv(a, b float64) float64 {
	if b <= 0 {
		return 0
	}
	return a / b
}

// gauge reads the value of the first sample of the named metric from a
// Prometheus text exposition (0 when absent).
func gauge(text, name string) float64 {
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		line := sc.Text()
		rest, ok := strings.CutPrefix(line, name)
		if !ok || rest == "" || (rest[0] != '{' && rest[0] != ' ') {
			continue
		}
		fields := strings.Fields(line)
		if v, err := strconv.ParseFloat(fields[len(fields)-1], 64); err == nil {
			return v
		}
	}
	return 0
}

// advanceThroughput times Kernels.Advance over the input graph's whole
// reachable frontier with converged distances (every edge scanned, no
// state changed), with each scheduling strategy pinned in turn, and
// returns edges per microsecond for each.
func advanceThroughput(x *input, budget time.Duration) map[string]float64 {
	pool := parallel.NewPool(workers)
	defer pool.Close()
	dist := append([]graph.Dist(nil), x.ref...)
	kn := sssp.NewKernels(x.g, pool, nil, dist)
	defer kn.Release()
	var front []graph.VID
	var edges int64
	for v, dv := range dist {
		if dv < graph.Inf {
			front = append(front, graph.VID(v))
			edges += x.g.OutDegree(graph.VID(v))
		}
	}
	strategies := []struct {
		name  string
		strat sssp.Strategy
	}{{"vertex", sssp.StrategyVertex}, {"edge", sssp.StrategyEdge}, {"auto", sssp.StrategyAuto}}
	for _, s := range strategies { // warm the scratch to its high-water mark
		kn.Force = s.strat
		kn.Advance(front)
	}
	rates := samples{}
	deadline := time.Now().Add(budget)
	for rep := 0; rep < 3 || time.Now().Before(deadline); rep++ {
		for _, s := range strategies {
			kn.Force = s.strat
			t0 := time.Now()
			kn.Advance(front)
			rates.add(s.name, float64(edges)/(float64(time.Since(t0))/1e3))
		}
	}
	m := map[string]float64{}
	for _, s := range strategies {
		m["sssp.advance.edges_per_us."+s.name] = median(rates[s.name])
	}
	return m
}

// timeRefKernel times the reference kernel on x, in ms: how fast the
// machine was for this run, the divisor of solve_rel_p50.
func timeRefKernel(x *input, budget time.Duration) float64 {
	var msk []float64
	deadline := time.Now().Add(budget)
	for rep := 0; rep < 3 || time.Now().Before(deadline); rep++ {
		msk = append(msk, ms(x.kernel.run()))
	}
	return median(msk)
}

// poolDispatch times an empty Pool.Run round trip on a pool of the solve
// size, in microseconds.
func poolDispatch(budget time.Duration) float64 {
	pool := parallel.NewPool(workers)
	defer pool.Close()
	noop := func(int) {}
	pool.Run(noop) // start the workers
	const batch = 1000
	var us []float64
	deadline := time.Now().Add(budget)
	for rep := 0; rep < 3 || time.Now().Before(deadline); rep++ {
		t0 := time.Now()
		for i := 0; i < batch; i++ {
			pool.Run(noop)
		}
		us = append(us, float64(time.Since(t0))/1e3/batch)
	}
	return median(us)
}

// timeReplay times controller replay of a traced solve's flight log, in
// microseconds per recorded iteration.
func timeReplay(l *energysssp.FlightLog, budget time.Duration) float64 {
	var us []float64
	deadline := time.Now().Add(budget)
	for rep := 0; rep < 3 || time.Now().Before(deadline); rep++ {
		t0 := time.Now()
		if _, err := energysssp.ReplayFlight(l); err != nil {
			return 0 // the traced solves already counted this log as failed
		}
		us = append(us, float64(time.Since(t0))/1e3)
	}
	return median(us) / float64(len(l.Records))
}

// timeFlightWrite times serializing a traced solve's flight log as JSONL
// and returns the time in ms and the size in bytes per iteration.
func timeFlightWrite(l *energysssp.FlightLog, budget time.Duration) (float64, float64) {
	if l == nil || len(l.Records) == 0 {
		return 0, 0
	}
	var buf bytes.Buffer
	var msw []float64
	deadline := time.Now().Add(budget)
	for rep := 0; rep < 3 || time.Now().Before(deadline); rep++ {
		buf.Reset()
		t0 := time.Now()
		if err := energysssp.WriteFlightLog(&buf, l); err != nil {
			return 0, 0
		}
		msw = append(msw, ms(time.Since(t0)))
	}
	return median(msw), float64(buf.Len()) / float64(len(l.Records))
}
