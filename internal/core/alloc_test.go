package core

import (
	"runtime"
	"testing"

	"energysssp/internal/flight"
	"energysssp/internal/gen"
	"energysssp/internal/parallel"
	"energysssp/internal/sssp"
)

// TestSolveSteadyStateAllocs is the whole-solve reuse gate: once one solve
// has grown the scratch, a self-tuning solve whose hub bursts spread
// thousands of far-queue entries over many partitions allocates nothing
// that scales with the work. Everything beyond the returned distance array
// must fit in less than one 16 KiB far-queue block.
func TestSolveSteadyStateAllocs(t *testing.T) {
	g := gen.RMAT(13, 8, 0.57, 0.19, 0.19, 1, 99, 5)
	pool := parallel.NewPool(2)
	defer pool.Close()
	cfg := Config{P: 300}
	rec := flight.NewRecorder(1 << 14)
	if _, err := Solve(g, 0, cfg, &sssp.Options{Pool: pool, Flight: rec}); err != nil {
		t.Fatal(err)
	}
	var maxParts, maxFar int64
	for _, r := range rec.Log().Records {
		maxParts, maxFar = max(maxParts, r.NumParts), max(maxFar, r.FarSize)
	}
	t.Logf("up to %d partitions and %d far entries", maxParts, maxFar)
	if maxParts < 16 || maxFar < 4096 {
		t.Fatalf("input too tame: at most %d partitions and %d far entries", maxParts, maxFar)
	}

	const solves = 5
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < solves; i++ {
		if _, err := Solve(g, 0, cfg, &sssp.Options{Pool: pool}); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&m1)
	perSolve := (m1.TotalAlloc - m0.TotalAlloc) / solves
	distBytes := uint64(g.NumVertices()) * 8
	t.Logf("%d B per solve, %d B of it the distance array, %d objects", perSolve, distBytes,
		(m1.Mallocs-m0.Mallocs)/solves)
	if extra := int64(perSolve) - int64(distBytes); extra >= 16<<10 {
		t.Errorf("warmed solve allocates %d B beyond its %d B distance array, want < 16 KiB", extra, distBytes)
	}
}
