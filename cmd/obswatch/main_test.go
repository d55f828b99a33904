package main

import (
	"net/http"
	"strings"
	"testing"
	"time"

	"energysssp"
	"energysssp/internal/obs"
)

// TestSnapshot runs -once's snapshot against a live obs server whose
// time-series store sampled one finished solve: the health line must report
// the retired solve, and the solve's series must render as sparkline rows.
func TestSnapshot(t *testing.T) {
	o := energysssp.NewObserver(0)
	db := energysssp.NewTimeSeriesStore(o, energysssp.TimeSeriesOptions{})
	if _, err := energysssp.Run(energysssp.CalLike(0.01, 42), 0, energysssp.RunConfig{
		Algorithm: energysssp.SelfTuning,
		SetPoint:  500,
		Obs:       o,
	}); err != nil {
		t.Fatal(err)
	}
	db.Sample(time.Now())

	srv, err := obs.Serve("127.0.0.1:0", o)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := srv.Close(); err != nil {
			t.Error(err)
		}
	}()

	var b strings.Builder
	client := &http.Client{Timeout: 5 * time.Second}
	if err := snapshot(&b, client, srv.Addr(), time.Minute, "solve_x2,solve_frontier"); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	lines := strings.Split(out, "\n")
	if !strings.HasPrefix(lines[0], "status=ok ") || !strings.Contains(lines[0], "solves=0 active / 1 retired") {
		t.Errorf("status line = %q, want status=ok with one retired solve", lines[0])
	}
	rows := 0
	for _, ln := range lines[1:] {
		if strings.HasPrefix(ln, `  solve_x2{solve="selftuning-1"}`) ||
			strings.HasPrefix(ln, `  solve_frontier{solve="selftuning-1"}`) {
			rows++
		}
	}
	if rows != 2 {
		t.Errorf("want one series row each for solve_x2 and solve_frontier, got %d:\n%s", rows, out)
	}
}
