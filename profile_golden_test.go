package energysssp

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"energysssp/internal/trace"
)

// TestIterationViewsGolden pins every per-iteration view a solver emits —
// the profile CSV, the profile JSON (by digest) and the flight JSONL — for
// fixed 1-worker TK1 solves of a small Cal-like input: the paper's
// self-tuning solve at P=500 (the TestMetricsGolden solve) and the near-far
// baseline on the flat and rho far queues. Every value in these files is simulated or
// counted, none host-timed, so the pins are exact. Run with -update to
// rewrite the goldens after an intended change.
func TestIterationViewsGolden(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  RunConfig
	}{
		{"selftuning", RunConfig{Algorithm: SelfTuning, SetPoint: 500}},
		{"nearfar_flat", RunConfig{Algorithm: NearFar, FarQueue: "flat"}},
		{"nearfar_rho", RunConfig{Algorithm: NearFar, FarQueue: "rho"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			cfg.Workers, cfg.Device, cfg.Profile = 1, "TK1", true
			cfg.FlightLog = NewFlightRecorder(0)
			out, err := Run(CalLike(0.01, 42), 0, cfg)
			if err != nil {
				t.Fatal(err)
			}
			var csv, js, fl bytes.Buffer
			if err := trace.WriteProfileCSV(&csv, out.Profile); err != nil {
				t.Fatal(err)
			}
			if err := trace.WriteProfileJSON(&js, out.Profile); err != nil {
				t.Fatal(err)
			}
			if err := WriteFlightLog(&fl, cfg.FlightLog.Log()); err != nil {
				t.Fatal(err)
			}
			checkGolden(t, tc.name+".profile.csv", csv.String())
			// The JSON carries the same IterStat rows the CSV pins field
			// by field, so its golden is a digest rather than a 4x larger
			// copy; a CSV that passes localizes a JSON-only change to the
			// encoding.
			sum := sha256.Sum256(js.Bytes())
			checkGolden(t, tc.name+".profile.json.sha256",
				fmt.Sprintf("%x  %d bytes\n", sum, js.Len()))
			checkGolden(t, tc.name+".flight.jsonl", fl.String())
		})
	}
}

// checkGolden compares got with testdata/views/<name> (rewriting it first
// under -update) and reports the first differing line.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", "views", name)
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Fatalf("%s differs at line %d (%d vs %d lines):\n got: %s\nwant: %s",
				path, i+1, len(gl), len(wl), g, w)
		}
	}
}
