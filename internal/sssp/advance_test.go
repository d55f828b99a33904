package sssp

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"energysssp/internal/gen"
	"energysssp/internal/graph"
	"energysssp/internal/metrics"
	"energysssp/internal/obs"
	"energysssp/internal/parallel"
)

// settledState builds a deterministic mid-solve snapshot: exact distances
// for every vertex within the D-ball of src (settled), Inf elsewhere, with
// the settled set as the frontier. Settled vertices cannot be lowered
// during an advance (their distances are already optimal), so the result
// of one AdvanceRange over this state is schedule-independent — the exact
// property the vertex/edge differential needs.
func settledState(t *testing.T, g *graph.Graph, src graph.VID) (dist []graph.Dist, front []graph.VID) {
	t.Helper()
	res, err := Dijkstra(g, src, nil)
	if err != nil {
		t.Fatal(err)
	}
	exact := res.Dist
	var finite []graph.Dist
	for _, d := range exact {
		if d < graph.Inf {
			finite = append(finite, d)
		}
	}
	if len(finite) < 8 {
		t.Fatalf("graph too disconnected from src %d: %d reachable", src, len(finite))
	}
	sort.Slice(finite, func(i, j int) bool { return finite[i] < finite[j] })
	thr := finite[len(finite)/2]
	dist = make([]graph.Dist, len(exact))
	for v, d := range exact {
		if d <= thr {
			dist[v] = d
			front = append(front, graph.VID(v))
		} else {
			dist[v] = graph.Inf
		}
	}
	return dist, front
}

// refAdvance computes the schedule-independent expected outcome of one
// AdvanceRange over a settled state: dist'[v] = min(dist[v], min over
// frontier u with edge u->v in [wlo,whi] of dist[u]+w), and the updated
// set {v : dist'[v] < dist[v]}.
func refAdvance(g *graph.Graph, dist []graph.Dist, front []graph.VID, wlo, whi graph.Weight) (want []graph.Dist, updated map[graph.VID]bool, edges int64) {
	want = append([]graph.Dist(nil), dist...)
	updated = make(map[graph.VID]bool)
	for _, u := range front {
		vs, ws := g.Neighbors(u)
		edges += int64(len(vs))
		for j, v := range vs {
			if ws[j] < wlo || ws[j] > whi {
				continue
			}
			if nd := dist[u] + graph.Dist(ws[j]); nd < want[v] {
				want[v] = nd
				updated[v] = true
			}
		}
	}
	return want, updated, edges
}

// TestAdvanceStrategiesAgree is the differential property test of the
// edge-balanced advance: over random graphs (scale-free, uniform-random,
// road-like) and random weight ranges, the vertex-dynamic and edge-balanced
// paths must produce the same distance array and the same deduplicated
// frontier set at every pool size, including 1, and must charge the same
// edge count.
func TestAdvanceStrategiesAgree(t *testing.T) {
	graphs := []*graph.Graph{
		gen.RMAT(10, 8, 0.57, 0.19, 0.19, 1, 99, 3),
		gen.ErdosRenyi(2000, 12000, 1, 50, 5),
		gen.Road(40, 50, 0.1, 1, 100, 7),
	}
	ranges := [][2]graph.Weight{{1, 1<<31 - 1}, {1, 20}, {21, 1<<31 - 1}, {30, 20}}
	for gi, g := range graphs {
		dist0, front := settledState(t, g, 0)
		for _, wr := range ranges {
			want, updated, wantEdges := refAdvance(g, dist0, front, wr[0], wr[1])
			for _, ps := range []int{1, 2, 3, 4} {
				for _, strat := range []Strategy{StrategyVertex, StrategyEdge, StrategyAuto} {
					pool := parallel.NewPool(ps)
					dist := append([]graph.Dist(nil), dist0...)
					kn := NewKernels(g, pool, nil, dist)
					kn.Force = strat
					adv := kn.AdvanceRange(front, wr[0], wr[1])
					if adv.Edges != wantEdges {
						t.Errorf("graph %d range %v pool %d %v: edges %d, want %d",
							gi, wr, ps, strat, adv.Edges, wantEdges)
					}
					for v := range dist {
						if dist[v] != want[v] {
							t.Fatalf("graph %d range %v pool %d %v: dist[%d]=%d, want %d",
								gi, wr, ps, strat, v, dist[v], want[v])
						}
					}
					if len(adv.Out) != len(updated) {
						t.Fatalf("graph %d range %v pool %d %v: |Out|=%d, want %d",
							gi, wr, ps, strat, len(adv.Out), len(updated))
					}
					for _, v := range adv.Out {
						if !updated[v] {
							t.Fatalf("graph %d range %v pool %d %v: unexpected frontier vertex %d",
								gi, wr, ps, strat, v)
						}
					}
					if strat == StrategyEdge && ps > 1 && !adv.EdgeBalanced {
						t.Errorf("graph %d pool %d: forced edge strategy did not run edge path", gi, ps)
					}
					kn.Release()
					pool.Close()
				}
			}
		}
	}
}

// TestSolversAgreeUnderEdgeStrategy runs complete solves with the advance
// strategy pinned each way (covering the mid-solve regime where frontier
// vertices are still improving) and checks exact distances against the
// Dijkstra oracle.
func TestSolversAgreeUnderEdgeStrategy(t *testing.T) {
	g := gen.RMAT(11, 8, 0.57, 0.19, 0.19, 1, 99, 9)
	oracle, err := Dijkstra(g, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, ps := range []int{1, 4} {
		for _, strat := range []Strategy{StrategyVertex, StrategyEdge, StrategyAuto} {
			pool := parallel.NewPool(ps)
			opt := &Options{Pool: pool, Advance: strat}
			nf, err := NearFar(g, 0, 30, opt)
			if err != nil {
				t.Fatalf("NearFar pool %d %v: %v", ps, strat, err)
			}
			bf, err := BellmanFord(g, 0, &Options{Pool: pool, Advance: strat})
			if err != nil {
				t.Fatalf("BellmanFord pool %d %v: %v", ps, strat, err)
			}
			for v, d := range oracle.Dist {
				if nf.Dist[v] != d {
					t.Fatalf("NearFar pool %d %v: dist[%d]=%d, want %d", ps, strat, v, nf.Dist[v], d)
				}
				if bf.Dist[v] != d {
					t.Fatalf("BellmanFord pool %d %v: dist[%d]=%d, want %d", ps, strat, v, bf.Dist[v], d)
				}
			}
			pool.Close()
		}
	}
}

// TestAdaptiveSchedulerChoices checks the StrategyAuto decision on the two
// canonical shapes: a scale-free input must route big skewed frontiers to
// the edge-balanced path, and a road-like input (uniform degree <= 4, skew
// far below the threshold) must stay entirely on the vertex path.
func TestAdaptiveSchedulerChoices(t *testing.T) {
	pool := parallel.NewPool(4)
	defer pool.Close()

	wiki := gen.WikiLike(0.01, 42)
	var prof metrics.Profile
	res, err := NearFar(wiki, 0, 1000, &Options{Pool: pool, Profile: &prof})
	if err != nil {
		t.Fatal(err)
	}
	if res.Reached < 2 {
		t.Fatalf("wiki solve reached %d vertices", res.Reached)
	}
	if n := prof.EdgeBalancedIters(); n == 0 {
		t.Errorf("scale-free solve never took the edge-balanced path (%d iters)", prof.Len())
	}

	road := gen.Road(120, 120, 0.1, 1, 100, 11)
	var roadProf metrics.Profile
	if _, err := NearFar(road, 0, 200, &Options{Pool: pool, Profile: &roadProf}); err != nil {
		t.Fatal(err)
	}
	if n := roadProf.EdgeBalancedIters(); n != 0 {
		t.Errorf("road-like solve took the edge-balanced path %d times, want 0", n)
	}
}

// wholeSolve returns a function that re-runs a whole solve from vertex 0
// on kn, Bellman-Ford style (each round's Out is the next frontier), after
// resetting the distances to init.
func wholeSolve(kn *Kernels, init []graph.Dist) func() {
	front := make([]graph.VID, 0, len(init))
	return func() {
		copy(kn.Dist, init)
		front = append(front[:0], 0)
		for len(front) > 0 {
			adv := kn.Advance(front)
			front = append(front[:0], adv.Out...)
		}
	}
}

// warmAllocs runs solve until three runs in a row allocate nothing (at
// most 30 runs), bringing buffers to their high-water mark so the next
// measurement sees a genuine steady state. With several workers that mark
// depends on the schedule.
func warmAllocs(solve func()) {
	for i, quiet := 0, 0; i < 30 && quiet < 3; i++ {
		if testing.AllocsPerRun(1, solve) == 0 {
			quiet++
		} else {
			quiet = 0
		}
	}
}

// TestAdvanceSteadyStateAllocs is the allocation regression gate of the
// advance: once buffers have warmed up, AdvanceRange must perform zero
// allocations per iteration on every scheduling path at every pool size.
// Two states are measured. A converged full frontier scans every edge but
// updates nothing. A whole solve on a reset distance array updates in
// every round, so it fills the per-worker buffers (sized by X2) and the
// filter's drain buffer (sized by |Out|). A whole road solve at pool size 2
// runs every round on the single-writer path, whose buffer grows inside
// the kernel.
func TestAdvanceSteadyStateAllocs(t *testing.T) {
	road := gen.Road(40, 50, 0.1, 1, 100, 7)
	pool := parallel.NewPool(2)
	st := new(obs.PoolStats)
	pool.Observe(st)
	init := newDist(road.NumVertices(), 0)
	kn := NewKernels(road, pool, nil, append([]graph.Dist(nil), init...))
	solve := wholeSolve(kn, init)
	warmAllocs(solve)
	if allocs := testing.AllocsPerRun(5, solve); allocs != 0 {
		t.Errorf("road pool 2: a warmed serial solve allocates %.1f per run, want 0", allocs)
	}
	if n := st.Launches(); n != 0 {
		t.Errorf("road pool 2: %d pool launches, want every round serial", n)
	}
	kn.Release()
	pool.Close()

	g := gen.RMAT(11, 8, 0.57, 0.19, 0.19, 1, 99, 13)
	init = newDist(g.NumVertices(), 0)
	for _, ps := range []int{1, 4} {
		for _, strat := range []Strategy{StrategyVertex, StrategyEdge} {
			pool := parallel.NewPool(ps)
			dist := append([]graph.Dist(nil), init...)
			kn := NewKernels(g, pool, nil, dist)
			kn.Force = strat
			solve := wholeSolve(kn, init)
			warmAllocs(solve)
			solveAllocs := testing.AllocsPerRun(5, solve)
			frontier := make([]graph.VID, 0, g.NumVertices())
			for v := 0; v < g.NumVertices(); v++ {
				if dist[v] < graph.Inf {
					frontier = append(frontier, graph.VID(v))
				}
			}
			kn.Advance(frontier) // warm the full-frontier path
			allocs := testing.AllocsPerRun(10, func() {
				kn.Advance(frontier)
			})
			kn.Release()
			pool.Close()
			if allocs != 0 {
				t.Errorf("pool %d %v: converged Advance allocates %.1f per run, want 0", ps, strat, allocs)
			}
			if solveAllocs != 0 {
				t.Errorf("pool %d %v: a warmed solve allocates %.1f per run, want 0", ps, strat, solveAllocs)
			}
		}
	}
}

// TestAdvanceFilterContract checks the filter output round by round over
// whole solves, at pool sizes 1, 2 and 4 on both scheduling paths: Out is
// strictly ascending (so free of duplicates) and is exactly the set of
// vertices whose distance dropped during that Advance, whichever worker
// won each relaxation race.
func TestAdvanceFilterContract(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"rmat": gen.RMAT(10, 8, 0.57, 0.19, 0.19, 1, 99, 3),
		"road": gen.Road(40, 50, 0.1, 1, 100, 7),
	}
	for name, g := range graphs {
		for _, ps := range []int{1, 2, 4} {
			for _, strat := range []Strategy{StrategyVertex, StrategyEdge} {
				pool := parallel.NewPool(ps)
				dist := newDist(g.NumVertices(), 0)
				before := make([]graph.Dist, len(dist))
				kn := NewKernels(g, pool, nil, dist)
				kn.Force = strat
				front := []graph.VID{0}
				rounds, edgeRounds := 0, 0
				for len(front) > 0 {
					copy(before, dist)
					adv := kn.Advance(front)
					rounds++
					if adv.EdgeBalanced {
						edgeRounds++
					}
					k := 0
					for v := range dist {
						if dist[v] == before[v] {
							continue
						}
						if k >= len(adv.Out) || adv.Out[k] != graph.VID(v) {
							t.Fatalf("%s pool %d %v round %d: Out=%v does not match dropped vertex %d at position %d",
								name, ps, strat, rounds, adv.Out, v, k)
						}
						k++
					}
					if k != len(adv.Out) {
						t.Fatalf("%s pool %d %v round %d: Out has %d vertices, %d distances dropped",
							name, ps, strat, rounds, len(adv.Out), k)
					}
					if adv.X2 < len(adv.Out) {
						t.Fatalf("%s pool %d %v round %d: X2=%d below |Out|=%d",
							name, ps, strat, rounds, adv.X2, len(adv.Out))
					}
					front = append(front[:0], adv.Out...)
				}
				kn.Release()
				pool.Close()
				if strat == StrategyEdge && ps > 1 && edgeRounds == 0 {
					t.Errorf("%s pool %d: forced edge strategy never ran the edge path in %d rounds", name, ps, rounds)
				}
			}
		}
	}
}

// TestAdvanceScanShortcut checks that skipping the degree scan when no
// edge-path trigger can fire leaves the adaptive decision unchanged: on a
// road graph (max degree <= 4) the shortcut is taken and the scanned
// chooser agrees it would pick the vertex path; on an RMAT graph the
// shortcut never applies and the decision is the scanned one.
func TestAdvanceScanShortcut(t *testing.T) {
	road := gen.Road(120, 120, 0.1, 1, 100, 11)
	rmat := gen.RMAT(12, 8, 0.57, 0.19, 0.19, 1, 99, 5)
	if d := road.MaxDegree(); d > 4 {
		t.Fatalf("road graph max degree %d, want <= 4", d)
	}
	for name, g := range map[string]*graph.Graph{"road": road, "rmat": rmat} {
		n := g.NumVertices()
		rng := rand.New(rand.NewSource(1))
		perm := make([]graph.VID, n)
		for i, v := range rng.Perm(n) {
			perm[i] = graph.VID(v)
		}
		for _, ps := range []int{2, 4} {
			pool := parallel.NewPool(ps)
			kn := NewKernels(g, pool, nil, newDist(n, 0))
			edgeChosen := 0
			for _, size := range []int{adaptMinFront, 500, 2000, n / 4, n / 2, n} {
				front := perm[:size]
				kn.front = front
				got := kn.planAdvance(size)
				want := kn.chooseScanned(size)
				kn.front = nil
				if got != want {
					t.Errorf("%s pool %d frontier %d: planAdvance=%v, scanned chooser=%v", name, ps, size, got, want)
				}
				if skip := !kn.edgePathCanFire(size); skip != (name == "road") {
					t.Errorf("%s pool %d frontier %d: scan skipped=%v", name, ps, size, skip)
				}
				if want {
					edgeChosen++
				}
			}
			kn.Release()
			pool.Close()
			if name == "rmat" && edgeChosen == 0 {
				t.Errorf("rmat pool %d: the scanned chooser never picked the edge path", ps)
			}
		}
	}
}

// TestSerialCutoffBoundary checks the single-writer cutoff at its edge: on
// a graph of maximum degree 4 at pool size 2, a frontier whose edge bound
// n·4 is just below serialEdges runs without a pool launch, and one at
// the cutoff launches the pool once.
func TestSerialCutoffBoundary(t *testing.T) {
	g := gen.Road(100, 100, 0.1, 1, 100, 1)
	if d := g.MaxDegree(); d != 4 {
		t.Fatalf("road graph max degree %d, want 4", d)
	}
	pool := parallel.NewPool(2)
	defer pool.Close()
	st := new(obs.PoolStats)
	pool.Observe(st)
	for _, c := range []struct {
		size     int
		launches int64
	}{{serialEdges/4 - 1, 0}, {serialEdges / 4, 1}} {
		dist := newDist(g.NumVertices(), 0)
		front := make([]graph.VID, c.size)
		for i := range front {
			front[i] = graph.VID(i)
			dist[i] = 0
		}
		kn := NewKernels(g, pool, nil, dist)
		before := st.Launches()
		kn.Advance(front)
		kn.Release()
		if got := st.Launches() - before; got != c.launches {
			t.Errorf("frontier %d (n·D = %d, cutoff %d): %d pool launches, want %d",
				c.size, c.size*4, serialEdges, got, c.launches)
		}
	}
}

// TestBatchScratchReuse proves batch solves stop re-allocating vertex-sized
// temporaries per source: after a warm-up batch has filled the idle
// scratch list, further batches allocate no new filter bitmaps (the marker
// for a scratch cache miss), at any GOMAXPROCS and with the GC running.
func TestBatchScratchReuse(t *testing.T) {
	g := gen.RMAT(10, 8, 0.57, 0.19, 0.19, 1, 99, 17)
	sources := make([]graph.VID, 16)
	for i := range sources {
		sources[i] = graph.VID(i * 31 % g.NumVertices())
	}
	const width = 4
	if err := FirstError(BatchNearFar(g, sources, 25, width)); err != nil {
		t.Fatal(err)
	}
	before := scratchBitmapAllocs.Load()
	for round := 0; round < 3; round++ {
		if err := FirstError(BatchNearFar(g, sources, 25, width)); err != nil {
			t.Fatal(err)
		}
	}
	if grew := scratchBitmapAllocs.Load() - before; grew != 0 {
		t.Errorf("3 warmed batches allocated %d fresh scratch bitmaps, want 0 (scratch not reused)", grew)
	}
}

// TestEdgeAdvanceStress hammers the edge-balanced kernel under the race
// detector: concurrent forced-edge solves on a shared hub-heavy graph, with
// wide pools so every advance splits hub adjacency lists across workers
// (prefix-sum publication, SearchPrefix clipping, per-worker buffers, and
// the scratch free-list handoff all get -race surface area). Results are
// checked against the Dijkstra oracle. Run via `go test -race`
// (scripts/check.sh does). Skipped under -short.
func TestEdgeAdvanceStress(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test; skipped under -short")
	}
	g := gen.RMAT(11, 16, 0.57, 0.19, 0.19, 1, 99, 29)
	oracle, err := Dijkstra(g, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	const goroutines = 4
	done := make(chan error, goroutines)
	for i := 0; i < goroutines; i++ {
		go func(i int) {
			pool := parallel.NewPool(4 + i*2)
			defer pool.Close()
			for r := 0; r < 6; r++ {
				opt := &Options{Pool: pool, Advance: StrategyEdge}
				var res Result
				var err error
				if r%2 == 0 {
					res, err = BellmanFord(g, 0, opt)
				} else {
					res, err = NearFar(g, 0, 40, opt)
				}
				if err != nil {
					done <- err
					return
				}
				for v, d := range oracle.Dist {
					if res.Dist[v] != d {
						done <- fmt.Errorf("goroutine %d round %d: dist[%d]=%d, want %d", i, r, v, res.Dist[v], d)
						return
					}
				}
			}
			done <- nil
		}(i)
	}
	for i := 0; i < goroutines; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}
