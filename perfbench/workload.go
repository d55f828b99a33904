package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"energysssp"
	"energysssp/internal/gen"
	"energysssp/internal/graph"
)

// benchScale is the graph size every workload runs at: 1/8 of the paper's
// inputs, the scale of the repository's experiment harness.
const benchScale = 0.125

// workers is the pool size of every timed solve: nproc on the reference
// host (2 vCPUs). It is fixed rather than read from the host so figures
// from different machines describe the same program configuration.
const workers = 2

// graphsPerRun is how many graphs one run generates from its seed. One
// road-like graph is a poor sample of its family: seed to seed, the
// simulated cal-selftuning time of a single graph has an interquartile
// spread of about 9%. Each run therefore measures 8 graphs, one after
// another, and averages their figures.
const graphsPerRun = 8

// loadsPerGraph is how many times set-up loads each graph; setup_s is the
// median over all loads of the run.
const loadsPerGraph = 2

// workload is one named benchmark input: a generated graph family, a
// solver and its parameter. README.md records why each one exists.
type workload struct {
	name  string
	graph string // "cal" or "wiki"
	algo  energysssp.Algorithm
	// setPoint is the SelfTuning parallelism target at benchScale; it is
	// scaled with the graph for the smaller smoke-test scales.
	setPoint float64
}

var workloads = []workload{
	{name: "cal-selftuning", graph: "cal", algo: energysssp.SelfTuning, setPoint: 2500},
	{name: "cal-nearfar", graph: "cal", algo: energysssp.NearFar},
	{name: "wiki-selftuning", graph: "wiki", algo: energysssp.SelfTuning, setPoint: 75000},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// input is one graph as the program loaded it, with its source, the
// Dijkstra reference distances, for NearFar its tuned δ, and the
// benchmark's reference kernel on it.
type input struct {
	seed   uint64
	g      *graph.Graph
	src    graph.VID
	ref    []graph.Dist
	delta  graph.Dist
	kernel *refKernel
}

// instance is one run of a workload: the run configuration every timed
// solve shares, where its graphs come from, and the set-up times of the
// graphs loaded so far.
type instance struct {
	w      workload
	cfg    energysssp.RunConfig
	seed   uint64
	scale  float64
	dir    string
	setupS []float64 // one load + source selection per entry
}

func newInstance(w workload, seed uint64, scale float64, dir string) (*instance, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	in := &instance{w: w, seed: seed, scale: scale, dir: dir, cfg: energysssp.RunConfig{
		Algorithm: w.algo,
		Workers:   workers,
		Device:    "TK1",
		Freq:      "auto",
	}}
	if w.algo == energysssp.SelfTuning {
		in.cfg.SetPoint = max(16, w.setPoint*scale/benchScale)
	}
	return in, nil
}

// graphSeed derives the seed of the run's i-th graph; graph 0 uses the run
// seed itself, the others are spread so that nearby run seeds share no
// graph.
func graphSeed(seed uint64, i int) uint64 {
	return seed ^ uint64(i)*0x9E3779B97F4A7C15
}

// generate builds a graph of the given kind from the seed.
func generate(kind string, scale float64, seed uint64) *graph.Graph {
	if kind == "wiki" {
		return gen.WikiLike(scale, seed)
	}
	return gen.CalLike(scale, seed)
}

// maxOutDegree is the harness's source rule: the first vertex of highest
// out-degree, which lies in the giant component of both generators.
func maxOutDegree(g *graph.Graph) graph.VID {
	var src graph.VID
	best := int64(-1)
	for u := 0; u < g.NumVertices(); u++ {
		if d := g.OutDegree(graph.VID(u)); d > best {
			best, src = d, graph.VID(u)
		}
	}
	return src
}

// load makes the run's i-th graph. It is generated from its seed, written
// as DIMACS under the run directory, and loaded loadsPerGraph times
// through graph.LoadFile, each load timed together with source selection;
// the file is removed afterwards. Outside the timed set-up, load then
// computes the Dijkstra reference, the reference kernel's copy of the
// graph and, for NearFar, the fixed δ.
func (in *instance) load(i int) (x *input, err error) {
	x = &input{seed: graphSeed(in.seed, i)}
	generated := generate(in.w.graph, in.scale, x.seed)
	path := filepath.Join(in.dir, fmt.Sprintf("%s-seed%d-scale%g.gr", in.w.graph, x.seed, in.scale))
	if err := graph.SaveFile(path, generated); err != nil {
		return nil, err
	}
	defer func() { // runs with many seeds would otherwise fill the disk
		if rmErr := os.Remove(path); err == nil && rmErr != nil {
			x, err = nil, rmErr
		}
	}()
	for k := 0; k < loadsPerGraph; k++ {
		x.g = nil
		runtime.GC() // each load starts from the same heap state
		t0 := time.Now()
		g, err := graph.LoadFile(path)
		if err != nil {
			return nil, err
		}
		src := maxOutDegree(g)
		in.setupS = append(in.setupS, time.Since(t0).Seconds())
		x.g, x.src = g, src
	}
	if !x.g.Equal(generated) {
		return nil, fmt.Errorf("graph.LoadFile(%s) differs from the generated graph", path)
	}
	ref, err := energysssp.Run(x.g, x.src, energysssp.RunConfig{Algorithm: energysssp.Dijkstra})
	if err != nil {
		return nil, fmt.Errorf("dijkstra reference: %w", err)
	}
	x.ref = ref.Dist
	x.kernel = newRefKernel(x.g, x.ref)
	if in.w.algo == energysssp.NearFar {
		// One worker: the multi-worker sweep is schedule-dependent (README).
		if x.delta, err = energysssp.TuneDelta(x.g, x.src, "TK1", 1); err != nil {
			return nil, fmt.Errorf("tune delta: %w", err)
		}
	}
	return x, nil
}

// tally counts solves and the ones that failed: an error, distances that
// differ from the reference, or (traced) an observability record that does
// not reconcile.
type tally struct {
	attempted, failed int
	firstErr          error
}

// count records one solve whose checks returned err (nil: correct).
func (t *tally) count(err error) {
	t.attempted++
	if err == nil {
		return
	}
	t.failed++
	if t.firstErr == nil {
		t.firstErr = err
	}
}

func (t *tally) failedFrac() float64 {
	if t.attempted == 0 {
		return 0
	}
	return float64(t.failed) / float64(t.attempted)
}

// checkDist compares a solve's distances with the reference.
func checkDist(got, want []graph.Dist) error {
	if len(got) != len(want) {
		return fmt.Errorf("dist has %d entries, want %d", len(got), len(want))
	}
	for v := range want {
		if got[v] != want[v] {
			return fmt.Errorf("dist[%d] = %d, want %d", v, got[v], want[v])
		}
	}
	return nil
}

// run executes one solve of x through the public API, timed around Run,
// and checks its distances against the reference.
func (in *instance) run(x *input, cfg energysssp.RunConfig) (*energysssp.RunOutput, time.Duration, error) {
	cfg.Delta = x.delta
	t0 := time.Now()
	out, err := energysssp.Run(x.g, x.src, cfg)
	wall := time.Since(t0)
	if err != nil {
		return nil, wall, fmt.Errorf("%s seed %d: %w", in.w.name, x.seed, err)
	}
	if err := checkDist(out.Dist, x.ref); err != nil {
		return out, wall, fmt.Errorf("%s seed %d: %w", in.w.name, x.seed, err)
	}
	return out, wall, nil
}
