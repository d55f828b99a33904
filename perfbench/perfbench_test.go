package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"strconv"
	"strings"
	"testing"
	"time"

	"energysssp"
)

// smokeScale keeps every workload's graphs to a few thousand vertices.
const smokeScale = 1.0 / 512

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median odd = %v, want 2", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v, want 2.5", got)
	}
	if got := median(nil); !math.IsNaN(got) {
		t.Errorf("median of nothing = %v, want NaN", got)
	}
	xs := []float64{5, 4, 3}
	median(xs)
	if xs[0] != 5 || xs[2] != 3 {
		t.Errorf("median reordered its input: %v", xs)
	}
}

func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // descending, so sorting matters
		}
		return xs
	}
	for n := 2 * minTail; n <= 300; n++ {
		v, pct, ok := tail(seq(n))
		if !ok {
			t.Fatalf("tail of %d samples not reported", n)
		}
		if beyond := n - int(v); beyond != minTail {
			t.Fatalf("tail of %d = %v at p%v has %d samples beyond it, want %d", n, v, pct, beyond, minTail)
		}
		if pct != 100*v/float64(n) {
			t.Fatalf("tail of %d = %v labelled p%v", n, v, pct)
		}
	}
	if v, pct, ok := tail(seq(100)); !ok || v != 90 || pct != 90 {
		t.Errorf("tail of 100 = %v at p%v (%v); want 90 at p90", v, pct, ok)
	}
	if v, pct, ok := tail(seq(40)); !ok || v != 30 || pct != 75 {
		t.Errorf("tail of 40 = %v at p%v (%v); want 30 at p75", v, pct, ok)
	}
	if v, pct, ok := tail(seq(20)); !ok || v != 10 || pct != 50 {
		t.Errorf("tail of 20 = %v at p%v (%v); want the median, 10 at p50", v, pct, ok)
	}
	for _, n := range []int{19, 1, 0} {
		if _, _, ok := tail(seq(n)); ok {
			t.Errorf("tail of %d samples reported: not even the median has ten beyond it", n)
		}
	}
}

func TestSpread(t *testing.T) {
	if got := spread([]float64{10, 10, 10}); got != 0 {
		t.Errorf("spread of equal values = %v", got)
	}
	if got := spread([]float64{9, 10, 12}); got != 0.3 {
		t.Errorf("spread = %v, want 0.3", got)
	}
}

func TestSelfTime(t *testing.T) {
	if got := selfTime(100, []int64{20, 30, 0, 40}); got != 10 {
		t.Errorf("selfTime = %d, want 10", got)
	}
	if got := selfTime(90, []int64{20, 30, 0, 40}); got != 0 {
		t.Errorf("selfTime with phases covering the wall = %d, want 0", got)
	}
	if got := selfTime(50, []int64{20, 40}); got >= 0 {
		t.Errorf("selfTime with phases exceeding the wall = %d, want negative", got)
	}
}

func TestCorruptDistanceCountsAsFailure(t *testing.T) {
	w, err := findWorkload("cal-nearfar")
	if err != nil {
		t.Fatal(err)
	}
	in, err := newInstance(w, 3, smokeScale, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var tl tally
	var e untracedRun
	clean, err := in.load(0)
	if err != nil {
		t.Fatal(err)
	}
	e.measure(in, clean, 50*time.Millisecond, &tl)
	if tl.failed != 0 {
		t.Fatalf("uncorrupted graph: %d of %d solves failed: %v", tl.failed, tl.attempted, tl.firstErr)
	}
	cleanSolves := tl.attempted

	bad, err := in.load(1)
	if err != nil {
		t.Fatal(err)
	}
	bad.ref[bad.src]++ // the solver now disagrees on one vertex
	e.measure(in, bad, 50*time.Millisecond, &tl)
	if want := tl.attempted - cleanSolves; tl.failed != want {
		t.Errorf("%d of %d solves failed; want every solve of the corrupted graph (%d)", tl.failed, tl.attempted, want)
	}
	if vals := e.metrics(in, &tl); tl.failedFrac() <= 0 || vals["correct_frac"] >= 1 {
		t.Errorf("corrupted distance not counted: failed_frac %v, correct_frac %v", tl.failedFrac(), vals["correct_frac"])
	}
}

// benchmarkSpec is the part of BENCHMARK.json the benchmark must agree with.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
}

func readSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	spec := readSpec(t)
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var ours []string
	for _, w := range workloads {
		ours = append(ours, w.name)
	}
	if strings.Join(names, ",") != strings.Join(ours, ",") {
		t.Errorf("BENCHMARK.json workloads %v, benchmark runs %v", names, ours)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, benchmark reports %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), benchmark %s (%s)",
					kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
}

// TestSmoke runs every workload at a tiny scale in both modes through the
// command entry point and checks the result line.
func TestSmoke(t *testing.T) {
	dir := t.TempDir()
	for _, w := range workloads {
		for _, trace := range []string{"0", "1"} {
			t.Run(w.name+"/trace"+trace, func(t *testing.T) {
				var stdout, stderr bytes.Buffer
				code := run([]string{"--workload", w.name, "--seed", "7", "--seconds", "0.3",
					"--trace", trace, "--scale", strconv.FormatFloat(smokeScale, 'g', -1, 64), "--dir", dir}, &stdout, &stderr)
				if code != 0 {
					t.Fatalf("exit %d\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
				}
				lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
				var res result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line is not a result: %v\n%s", err, stdout.String())
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < graphsPerRun {
					t.Fatalf("result %+v", res)
				}
				want := endToEnd
				if trace == "1" {
					want = perLayer
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics, want %d", len(res.Metrics), len(want))
				}
				for _, d := range want {
					m, ok := res.Metrics[d.name]
					if !ok || m.Unit != d.unit {
						t.Errorf("metric %s: %+v, present %v; want unit %s", d.name, m, ok, d.unit)
					}
				}
				if trace == "0" {
					for _, d := range endToEnd {
						if res.Metrics[d.name].Value <= 0 {
							t.Errorf("end-to-end metric %s = %v, want > 0", d.name, res.Metrics[d.name].Value)
						}
					}
					return
				}
				core := 0.0
				for name, m := range res.Metrics {
					if strings.HasPrefix(name, "core.") {
						core += math.Abs(m.Value)
					}
				}
				if (w.algo == energysssp.NearFar) != (core == 0) {
					t.Errorf("core.* metrics sum to %v on %s; want zero exactly for NearFar", core, w.name)
				}
				if res.Metrics["sssp.unattributed_ms"].Value < 0 {
					t.Errorf("negative unattributed time %v", res.Metrics["sssp.unattributed_ms"].Value)
				}
			})
		}
	}
}

func TestBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "cal-nearfar", "--trace", "2"},
		{"--workload", "cal-nearfar", "--seconds", "0"},
		{"--workload", "cal-nearfar", "--scale", "2"},
		{"--bogus"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 2 || stdout.Len() != 0 {
			t.Errorf("run(%v) = %d with stdout %q; want 2 and no output", args, code, stdout.String())
		}
	}
}
