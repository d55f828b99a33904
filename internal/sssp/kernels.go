package sssp

import (
	"slices"
	"sync/atomic"
	"time"

	"energysssp/internal/frontier"
	"energysssp/internal/graph"
	"energysssp/internal/obs"
	"energysssp/internal/parallel"
	"energysssp/internal/sim"
)

// Strategy selects the advance stage's load-balancing scheme.
type Strategy uint8

const (
	// StrategyAuto picks per iteration between the vertex-dynamic and
	// edge-balanced paths from the frontier's edge count and degree skew.
	StrategyAuto Strategy = iota
	// StrategyVertex always partitions the frontier by vertex count with
	// dynamic chunk scheduling (the classic path; best on small or
	// uniform-degree frontiers such as road networks).
	StrategyVertex
	// StrategyEdge always partitions the frontier's edges equally across
	// workers via a degree prefix sum (merge-path style; best on skewed
	// frontiers where one hub would serialize a vertex chunk).
	StrategyEdge
)

// String names the strategy.
func (s Strategy) String() string {
	switch s {
	case StrategyVertex:
		return "vertex"
	case StrategyEdge:
		return "edge"
	default:
		return "auto"
	}
}

// Advance scheduling parameters. The decision is deterministic in the
// frontier and pool size — never in timing — so repeated runs take the same
// path and simulated accounting stays reproducible.
const (
	// serialEdges is the edge cutoff of the single-writer path: under
	// StrategyAuto a round whose edge bound n·maxDeg is below it runs on the
	// calling goroutine. BenchmarkAdvanceRounds puts the crossover at or
	// above 2^16 on a 2-vCPU Xeon: per examined edge the pool (p2 and p4
	// vertex legs) costs about 2x the serial path below 2^12, 1.7x in
	// [2^12, 2^14), 1.5x in [2^14, 2^16) and about 1x above 2^16 on the
	// road input. The cutoff sits a class below the loss seen here, which
	// keeps every controller-sized road round (a few thousand vertices of
	// degree <= 4) serial and leaves mid-sized rounds to the pool on hosts
	// with more cores.
	serialEdges = 1 << 14
	// advanceGrain is the vertex count per dynamically scheduled chunk on
	// the vertex path. A frontier of at most one chunk cannot be split by
	// that path, so it runs on the single-writer path instead.
	advanceGrain = 64
	// adaptMinFront is the frontier size below which StrategyAuto takes
	// the vertex path without scanning degrees at all.
	adaptMinFront = 128
	// edgeShareMin is the minimum number of edges per worker for the edge
	// partition to be worth its prefix-sum setup.
	edgeShareMin = 1024
	// skewFactor switches to the edge path when the maximum frontier
	// degree exceeds this multiple of the mean degree — the regime where
	// one hub serializes a 64-vertex chunk while other workers idle.
	skewFactor = 8
	// largeFrontierEdges switches to the edge path regardless of skew once
	// the frontier carries this many edges: at that size the exact static
	// split is as good as dynamic chunking and cheaper to schedule.
	largeFrontierEdges = 1 << 20
)

// Kernels bundles the relaxation machinery shared by the near-far baseline
// and the self-tuning algorithm: the advance stage (relaxation emitting
// every successful update — on one writer with plain stores for small
// rounds, edge-parallel with atomic-min for large ones) followed by the
// filter stage (bitmap deduplication after the join, in vertex order),
// mirroring how Gunrock structures the same work on a GPU.
// A Kernels value is bound to one (graph, distance array) pair for the
// duration of a solve; call Release when the solve finishes to hand its
// scratch back to the idle list.
type Kernels struct {
	G    *graph.Graph
	Pool *parallel.Pool
	Mach *sim.Machine // nil disables simulation accounting
	Dist []graph.Dist
	// Force pins the advance strategy; StrategyAuto (the zero value)
	// adapts per iteration. Host-side scheduling only: simulated kernel
	// charges are identical across strategies.
	Force Strategy

	sc   *scratch
	scan *parallel.Scan
	// maxDeg is the graph's maximum out-degree. It bounds every frontier's
	// degrees, so a round's edge count is at most n·maxDeg: serialRound
	// and planAdvance decide from it without a scan.
	maxDeg int64

	// Observability handles, all nil when no observer is attached. Every
	// one is nil-safe, so the instrumented sites below run unconditionally
	// and the off path is the same code as the on path (which is what makes
	// the obs-on/obs-off sim accounting bit-identical).
	tr          *obs.Tracer
	em          *obs.EnergyMeter
	obsAdvances *obs.Counter
	obsEdges    *obs.Counter
	obsUpdates  *obs.Counter
	obsEdgeBal  *obs.Counter
	obsX2       *obs.Histogram
	sink        IterSink // the per-iteration views; see IterSink

	// Per-call state published to the prebuilt worker closures. The
	// closures are constructed once in NewKernels and passed by value to
	// Pool.Run so the steady state performs zero allocations per advance.
	front     []graph.VID
	wlo, whi  graph.Weight
	edgeTotal int64
	next      atomic.Int64 // vertex-path dynamic chunk cursor

	degreeOf     func(i int) int64
	vertexWorker func(w int)
	edgeWorker   func(w int)
}

// NewKernels prepares the engine. dist must be the solver's live distance
// array (len == NumVertices), already initialized. The scratch (bitmap,
// buffers, prefix array, counters, far queues) comes from the process-wide
// idle list; pair every NewKernels with a Release.
func NewKernels(g *graph.Graph, pool *parallel.Pool, mach *sim.Machine, dist []graph.Dist) *Kernels {
	kn := &Kernels{
		G:      g,
		Pool:   pool,
		Mach:   mach,
		Dist:   dist,
		sc:     getScratch(g.NumVertices(), pool.Size()),
		scan:   parallel.NewScan(pool),
		maxDeg: g.MaxDegree(),
	}
	kn.degreeOf = func(i int) int64 { return kn.G.OutDegree(kn.front[i]) }
	kn.vertexWorker = func(w int) {
		obs.ApplyPhaseLabel(obs.PhaseAdvance) // worker CPU samples -> advance
		front := kn.front
		n := len(front)
		g := kn.G
		dist := kn.Dist
		wlo, whi := kn.wlo, kn.whi
		buf := kn.sc.bufs[w]
		var edges int64
		for {
			lo := int(kn.next.Add(advanceGrain)) - advanceGrain
			if lo >= n {
				break
			}
			hi := lo + advanceGrain
			if hi > n {
				hi = n
			}
			for i := lo; i < hi; i++ {
				u := front[i]
				du := atomic.LoadInt64(&dist[u])
				vs, ws := g.Neighbors(u)
				edges += int64(len(vs))
				for j, v := range vs {
					if ws[j] < wlo || ws[j] > whi {
						continue
					}
					nd := du + graph.Dist(ws[j])
					if parallel.MinInt64(&dist[v], nd) {
						buf = append(buf, v)
					}
				}
			}
		}
		kn.sc.bufs[w] = buf
		kn.sc.counts[w].edges += edges
	}
	kn.edgeWorker = func(w int) {
		obs.ApplyPhaseLabel(obs.PhaseAdvance) // worker CPU samples -> advance
		elo, ehi := parallel.EdgeShare(kn.edgeTotal, kn.Pool.Size(), w)
		if elo >= ehi {
			return
		}
		front := kn.front
		prefix := kn.sc.prefix[:len(front)+1]
		g := kn.G
		dist := kn.Dist
		wlo, whi := kn.wlo, kn.whi
		buf := kn.sc.bufs[w]
		vi := parallel.SearchPrefix(prefix, elo)
		for e := elo; e < ehi; {
			for prefix[vi+1] <= e {
				vi++ // skip consumed and zero-degree vertices
			}
			u := front[vi]
			du := atomic.LoadInt64(&dist[u])
			vs, ws := g.Neighbors(u)
			segLo := int(e - prefix[vi])
			segHi := len(vs)
			if rem := ehi - e; int64(segHi-segLo) > rem {
				segHi = segLo + int(rem)
			}
			for j := segLo; j < segHi; j++ {
				if ws[j] < wlo || ws[j] > whi {
					continue
				}
				nd := du + graph.Dist(ws[j])
				v := vs[j]
				if parallel.MinInt64(&dist[v], nd) {
					buf = append(buf, v)
				}
			}
			e += int64(segHi - segLo)
		}
		kn.sc.bufs[w] = buf
		// Each worker examines exactly its edge share, so the summed
		// Edges equals the frontier's total out-degree — the same count
		// the vertex path reports.
		kn.sc.counts[w].edges += ehi - elo
	}
	return kn
}

// roundHook, when non-nil, runs at the start of every AdvanceRange with
// the round's inputs, before any distance changes. Tests set it to check
// each round of whole solves against the atomic kernel; it is nil
// otherwise.
var roundHook func(kn *Kernels, front []graph.VID, wlo, whi graph.Weight)

// x2Buckets spans the plausible range of per-iteration update counts
// (the paper's X² parallelism signal): powers of four from 1 to 4M.
var x2Buckets = []float64{1, 4, 16, 64, 256, 1024, 4096, 16384, 65536, 262144, 1048576, 4194304}

// Observe attaches a per-solve observability scope: phase spans go to the
// scope's tracer, solver totals to its registry (chained into the fleet
// registry), and kernel energy charges to its energy meter. Call before
// the first Advance. A nil s is a no-op, leaving the kernels
// uninstrumented. All metric updates are host-side only and never touch
// the simulated machine.
func (kn *Kernels) Observe(s *obs.Scope) {
	if s == nil {
		return
	}
	kn.tr = s.Tracer()
	kn.em = s.Energy()
	reg := s.Registry()
	kn.obsAdvances = reg.Counter("sssp_advances_total",
		"advance+filter kernel executions")
	kn.obsEdges = reg.Counter("sssp_edges_relaxed_total",
		"edges examined by advance kernels")
	kn.obsUpdates = reg.Counter("sssp_updates_total",
		"successful distance updates (sum of per-iteration X2)")
	kn.obsEdgeBal = reg.Counter("sssp_edge_balanced_advances_total",
		"advances scheduled on the edge-balanced path")
	kn.obsX2 = reg.Histogram("sssp_x2_updates",
		"distance updates per advance (the controller's X2 signal)", x2Buckets)
	reg.Counter("sssp_solves_total", "kernel engines constructed (one per solve)").Inc()
	registerScratchMetrics(reg)
	kn.Pool.Observe(s.PoolStats())
}

// SimNow reads the simulated clock without charging it (0 with no machine).
// Solver drivers use it to bracket charge calls when recording spans.
func (kn *Kernels) SimNow() time.Duration {
	if kn.Mach == nil {
		return 0
	}
	return kn.Mach.Now()
}

// Trace returns the attached tracer (nil when unobserved); the returned
// tracer is nil-safe, so drivers call Begin/Mark on it unconditionally.
func (kn *Kernels) Trace() *obs.Tracer { return kn.tr }

// Release hands the solve's scratch back to the idle list. The Kernels
// value, the Out slice of its last AdvanceResult, and every queue and
// buffer it handed out must not be used afterwards.
func (kn *Kernels) Release() {
	if kn.sc != nil {
		putScratch(kn.sc)
		kn.sc = nil
	}
}

// Buffers returns the solve's two vertex lists, empty: the frontier and a
// second list (DeltaStepping's settled set). They keep the capacity earlier
// solves grew them to; hand them back with KeepBuffers before Release so
// this solve's growth is kept too.
func (kn *Kernels) Buffers() (front, aux []graph.VID) {
	return kn.sc.front[:0], kn.sc.aux[:0]
}

// KeepBuffers stores the (possibly regrown) lists from Buffers for the
// next solve. A nil list leaves the stored one in place.
func (kn *Kernels) KeepBuffers(front, aux []graph.VID) {
	if front != nil {
		kn.sc.front = front
	}
	if aux != nil {
		kn.sc.aux = aux
	}
}

// Partitioned returns the solve's partitioned far queue, reset to the two
// partitions (0, firstUpper] and (firstUpper, graph.Inf].
func (kn *Kernels) Partitioned(firstUpper graph.Dist) *frontier.Partitioned {
	kn.sc.part.Reset(firstUpper)
	return &kn.sc.part
}

// Lazy returns the solve's lazy bucketed far queue, reset to the given
// bucket width with everything at or below startThr drained.
func (kn *Kernels) Lazy(width, startThr graph.Dist) *frontier.Lazy {
	kn.sc.lazy.Reset(width, startThr)
	return &kn.sc.lazy
}

// Flat returns the solve's flat far queue, empty.
func (kn *Kernels) Flat() *frontier.Flat {
	kn.sc.flat.Reset()
	return &kn.sc.flat
}

// AdvanceResult reports one advance+filter execution.
type AdvanceResult struct {
	// Out is the deduplicated updated frontier (the filter output, X³):
	// every vertex whose distance dropped during the call, in ascending
	// vertex order. The slice is reused across calls; callers must consume
	// it before the next Advance (and before Release).
	Out []graph.VID
	// X2 is the advance output cardinality — the number of successful
	// distance updates including duplicates, the paper's available
	// parallelism metric.
	X2 int
	// Edges is the number of edges examined.
	Edges int64
	// Dur is the simulated duration charged (zero without a machine).
	Dur time.Duration
	// EdgeBalanced reports whether the edge-balanced path ran this
	// advance (false: vertex-dynamic).
	EdgeBalanced bool
}

// Advance executes the advance and filter stages over the given frontier:
// every outgoing edge of every frontier vertex is relaxed with an atomic
// min, every successful update is emitted, the updates are deduplicated
// through the bitmap after the workers join, and the simulated machine (if
// any) is charged an edge-parallel advance kernel plus a vertex-parallel
// filter kernel.
func (kn *Kernels) Advance(front []graph.VID) AdvanceResult {
	return kn.AdvanceRange(front, 1, 1<<31-1)
}

// AdvanceRange is Advance restricted to edges whose weight lies in
// [wlo, whi]. Classic delta-stepping uses it for its light-edge
// (weight <= delta) and heavy-edge (weight > delta) phases.
//
// The frontier is scheduled by one of three host-side paths: the
// single-writer kernel on the calling goroutine (see serialRound),
// vertex-dynamic chunks on the pool, or an edge-balanced static partition
// over a degree prefix sum, chosen per Force (adaptively under
// StrategyAuto). All three examine the same edge set, relax with the same
// min rule, and charge the simulated machine identically, so the schedule
// affects wall-clock only. Serial rounds are also independent of the
// worker count; parallel rounds' X2 depends on which relaxation lands
// first.
func (kn *Kernels) AdvanceRange(front []graph.VID, wlo, whi graph.Weight) AdvanceResult {
	if roundHook != nil {
		roundHook(kn, front, wlo, whi)
	}
	nw := kn.Pool.Size()
	sc := kn.sc
	for w := 0; w < nw; w++ {
		sc.bufs[w] = sc.bufs[w][:0]
		sc.counts[w] = counters{}
	}
	kn.front, kn.wlo, kn.whi = front, wlo, whi
	serial := kn.serialRound(len(front))
	useEdge := !serial && kn.planAdvance(len(front))
	kn.next.Store(0)
	obs.ApplyPhaseLabel(obs.PhaseAdvance)
	spAdv := kn.tr.Begin(obs.PhaseAdvance)
	switch {
	case serial:
		kn.serialAdvance()
	case useEdge:
		kn.Pool.Run(kn.edgeWorker)
	default:
		kn.Pool.Run(kn.vertexWorker)
	}
	kn.front = nil

	res := AdvanceResult{EdgeBalanced: useEdge}
	for w := 0; w < nw; w++ {
		res.X2 += len(sc.bufs[w])
		res.Edges += sc.counts[w].edges
	}
	// Charge order is advance then filter, exactly as before observability:
	// the advance charge closes the advance span, the filter charge closes
	// the filter span (which covers the host-side dedup and drain).
	advSimStart := kn.SimNow()
	if kn.Mach != nil {
		e0 := kn.Mach.Energy()
		res.Dur = kn.Mach.Kernel(sim.KernelAdvance, int(res.Edges))
		kn.em.Charge(obs.PhaseAdvance, e0, kn.Mach.Energy())
		spAdv.Kernel(res.Edges, advSimStart, res.Dur)
	}
	spAdv.EndSim(res.Edges, advSimStart, res.Dur)

	obs.ApplyPhaseLabel(obs.PhaseFilter)
	spFil := kn.tr.Begin(obs.PhaseFilter)
	res.Out = kn.filter()
	filSimStart := kn.SimNow()
	var filDur time.Duration
	if kn.Mach != nil {
		e0 := kn.Mach.Energy()
		filDur = kn.Mach.Kernel(sim.KernelFilter, res.X2)
		kn.em.Charge(obs.PhaseFilter, e0, kn.Mach.Energy())
		res.Dur += filDur
		spFil.Kernel(int64(res.X2), filSimStart, filDur)
	}
	spFil.EndSim(int64(res.X2), filSimStart, filDur)

	kn.obsAdvances.Inc()
	kn.obsEdges.Add(res.Edges)
	kn.obsUpdates.Add(int64(res.X2))
	if useEdge {
		kn.obsEdgeBal.Inc()
	}
	// Exemplar: the X2 observation carries the advance span that produced
	// it, so a tail bucket on /metrics links straight to the span tree.
	kn.obsX2.ObserveSpan(float64(res.X2), spAdv.ID())
	return res
}

// filter deduplicates the round's updates on this goroutine, after the
// join. Draining the bitmap emits them in vertex order and leaves it clear
// for the next round.
func (kn *Kernels) filter() []graph.VID {
	sc := kn.sc
	for _, buf := range sc.bufs[:kn.Pool.Size()] {
		for _, v := range buf {
			sc.seen.Set(int(v))
		}
	}
	sc.out = sc.seen.Drain(sc.out[:0])
	return sc.out
}

// serialRound reports whether a round over n frontier vertices runs on the
// single-writer path. It does whenever the pool has one worker or the
// frontier is empty. Otherwise a pinned StrategyEdge always takes the edge
// path, a pinned StrategyVertex goes to the pool once the frontier spans
// more than one chunk, and StrategyAuto also stays serial while the round
// cannot reach serialEdges edges. The decision reads only n, the graph and
// the pool size, so it needs no scan and every run takes the same path.
func (kn *Kernels) serialRound(n int) bool {
	if kn.Pool.Size() == 1 || n == 0 {
		return true
	}
	switch kn.Force {
	case StrategyEdge:
		return false
	case StrategyVertex:
		return n <= advanceGrain
	}
	return n <= advanceGrain || int64(n)*kn.maxDeg < serialEdges
}

// serialAdvance relaxes the whole frontier on the calling goroutine, which
// is then the only writer of the distance array: no worker runs until the
// next Pool.Run, whose launch orders these plain stores before the
// workers' atomic reads. Each edge stores min(old, nd) unconditionally and
// writes v to the next output slot, keeping the slot only when nd < old.
// The compiler turns both selections into conditional moves, so the
// relaxation test (true for roughly half of all edges on the paper's
// inputs, hence unpredictable) costs no branch mispredicts. The result
// equals the atomic vertex kernel run on one goroutine: same distances,
// same updates in the same order.
func (kn *Kernels) serialAdvance() {
	rowPtr, col, wgt := kn.G.RowPtr, kn.G.Col, kn.G.Wgt
	dist := kn.Dist
	wlo := kn.wlo
	span := uint32(kn.whi - kn.wlo) // w in [wlo, whi] iff uint32(w-wlo) <= span
	if kn.whi < kn.wlo {
		wlo, span = 0, 0 // empty range: every weight is positive, so out of it
	}
	buf := kn.sc.bufs[0]
	buf = buf[:cap(buf)]
	k := 0
	var edges int64
	for _, u := range kn.front {
		lo, hi := rowPtr[u], rowPtr[u+1]
		edges += hi - lo
		if int64(len(buf)-k) < hi-lo {
			buf = slices.Grow(buf[:k], int(hi-lo))
			buf = buf[:cap(buf)]
		}
		du := dist[u]
		for e := lo; e < hi; e++ {
			v, w := col[e], wgt[e]
			old := dist[v]
			nd := du + graph.Dist(w)
			if uint32(w-wlo) > span {
				nd = old
			}
			dist[v] = min(old, nd)
			buf[k] = v
			if nd < old {
				k++
			}
		}
	}
	kn.sc.bufs[0] = buf[:k]
	kn.sc.counts[0].edges += edges
}

// planAdvance decides between the pool's two paths for a frontier of n
// vertices (true: edge-balanced) and, when the edge path is in play, builds
// the degree prefix sum (reused by the edge workers). The decision depends
// only on the frontier, the graph, and the pool size, so it is
// deterministic across runs.
func (kn *Kernels) planAdvance(n int) bool {
	switch kn.Force {
	case StrategyVertex:
		return false
	case StrategyEdge:
		total, _ := kn.scanDegrees(n)
		return total > 0
	}
	if n < adaptMinFront || !kn.edgePathCanFire(n) {
		return false
	}
	return kn.chooseScanned(n)
}

// edgePathCanFire reports whether either edge-path trigger of chooseScanned
// is reachable for n frontier vertices, given the graph's maximum degree.
// The skew trigger needs a frontier degree of at least skewFactor (the mean
// is at least 1), and the size trigger needs n·maxDeg ≥ largeFrontierEdges.
// When neither can fire the scanned chooser returns false, so skipping the
// scan leaves the decision unchanged. On road networks (maxDeg ≤ 4) no
// advance scans.
func (kn *Kernels) edgePathCanFire(n int) bool {
	return kn.maxDeg >= skewFactor || int64(n)*kn.maxDeg >= largeFrontierEdges
}

// chooseScanned scans the frontier's degrees and takes the edge path when
// every worker gets enough edges and either the degree skew or the edge
// count is large.
func (kn *Kernels) chooseScanned(n int) bool {
	total, maxDeg := kn.scanDegrees(n)
	if total < int64(kn.Pool.Size())*edgeShareMin {
		return false
	}
	mean := max(total/int64(n), 1)
	return maxDeg >= skewFactor*mean || total >= largeFrontierEdges
}

// scanDegrees builds the exclusive prefix sum of the n frontier degrees for
// the edge workers and returns their total and maximum.
func (kn *Kernels) scanDegrees(n int) (total, maxDeg int64) {
	obs.ApplyPhaseLabel(obs.PhaseScan)
	sp := kn.tr.Begin(obs.PhaseScan)
	total, maxDeg = kn.scan.ExclusiveSum(n, kn.sc.grownPrefix(n), kn.degreeOf)
	sp.End(int64(n))
	kn.edgeTotal = total
	return total, maxDeg
}

// ChargeBisect charges the bisect-frontier kernel over items work items,
// attributing the joules to the rebalance phase.
func (kn *Kernels) ChargeBisect(items int) time.Duration {
	if kn.Mach == nil {
		return 0
	}
	e0 := kn.Mach.Energy()
	d := kn.Mach.Kernel(sim.KernelBisect, items)
	kn.em.Charge(obs.PhaseRebalance, e0, kn.Mach.Energy())
	return d
}

// ChargeFarQueue charges the bisect-far-queue / rebalancer kernel over
// items scanned entries, attributing the joules to the rebalance phase.
func (kn *Kernels) ChargeFarQueue(items int) time.Duration {
	if kn.Mach == nil {
		return 0
	}
	e0 := kn.Mach.Energy()
	d := kn.Mach.Kernel(sim.KernelFarQueue, items)
	kn.em.Charge(obs.PhaseRebalance, e0, kn.Mach.Energy())
	return d
}

// ChargeHost charges host (controller) time, attributing the joules to the
// controller phase.
func (kn *Kernels) ChargeHost(d time.Duration) {
	if kn.Mach != nil {
		e0 := kn.Mach.Energy()
		kn.Mach.HostStep(d)
		kn.em.Charge(obs.PhaseController, e0, kn.Mach.Energy())
	}
}
