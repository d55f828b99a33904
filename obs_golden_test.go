package energysssp

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/*.golden from the current output")

// goldenRun executes the fixed solve behind the /metrics golden: one
// self-tuning solve of a small Cal-like input on the simulated TK1, on one
// worker so that every counter is schedule-independent.
func goldenRun(t *testing.T) *Observer {
	t.Helper()
	o := NewObserver(0)
	if _, err := Run(CalLike(0.01, 42), 0, RunConfig{
		Algorithm: SelfTuning,
		SetPoint:  500,
		Workers:   1,
		Device:    "TK1",
		Obs:       o,
	}); err != nil {
		t.Fatal(err)
	}
	return o
}

// volatileFamily reports whether a metric family's sample values vary
// between identical solves: Go runtime statistics, host-clock measurements,
// the host-timed solve-duration histogram, and the scratch-pool gauges,
// which count every solve in the process rather than this one.
func volatileFamily(name string) bool {
	return strings.HasPrefix(name, "go_") ||
		strings.Contains(name, "host") ||
		strings.HasPrefix(name, "sssp_solve_seconds_") ||
		strings.HasPrefix(name, "sssp_scratch_")
}

// hostLabel matches the build_info label values that name the toolchain and
// the GOMAXPROCS of the test process rather than anything the solve did.
var hostLabel = regexp.MustCompile(`(go_version|gomaxprocs)="[^"]*"`)

// maskExposition replaces the sample value (and trailing exemplar value, if
// any) of every line in a volatile family with "<v>", and the host-describing
// build_info label values with "<host>". Family names, HELP/TYPE lines,
// label names and exemplar labels stay as written.
func maskExposition(text string) string {
	lines := strings.Split(text, "\n")
	for i, ln := range lines {
		if ln == "" || strings.HasPrefix(ln, "#") {
			continue
		}
		if strings.HasPrefix(ln, "build_info{") {
			lines[i] = hostLabel.ReplaceAllString(ln, `$1="<host>"`)
			continue
		}
		name := ln
		if j := strings.IndexAny(ln, "{ "); j >= 0 {
			name = ln[:j]
		}
		if !volatileFamily(name) {
			continue
		}
		series, exemplar, hasEx := strings.Cut(ln, " # ")
		series = series[:strings.LastIndexByte(series, ' ')] + " <v>"
		if hasEx {
			if j := strings.IndexByte(exemplar, '}'); j >= 0 {
				exemplar = exemplar[:j+1] + " <v>"
			}
			series += " # " + exemplar
		}
		lines[i] = series
	}
	return strings.Join(lines, "\n")
}

// TestMetricsGolden pins the per-process /metrics exposition of a fixed
// solve. Only the sample values of volatileFamily families are masked; any
// added, removed or renamed family, label or exemplar shows up as a diff.
// Run with -update to rewrite the golden after an intended change.
func TestMetricsGolden(t *testing.T) {
	o := goldenRun(t)
	var buf bytes.Buffer
	if err := o.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	got := maskExposition(buf.String())
	path := filepath.Join("testdata", "metrics.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
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
			t.Fatalf("/metrics differs from %s at line %d (%d vs %d lines):\n got: %s\nwant: %s",
				path, i+1, len(gl), len(wl), g, w)
		}
	}
}

// TestHealthzKeysGolden pins the key set of the /healthz JSON payload.
func TestHealthzKeysGolden(t *testing.T) {
	o := goldenRun(t)
	var buf bytes.Buffer
	if err := o.WriteHealthJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(buf.Bytes(), &m); err != nil {
		t.Fatal(err)
	}
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	want := []string{
		"active_solves", "events_dropped_total", "evicted_solves", "findings_total",
		"retired_solves", "status", "tsdb_samples", "tsdb_series", "uptime_s",
	}
	if !reflect.DeepEqual(keys, want) {
		t.Errorf("/healthz keys = %v, want %v", keys, want)
	}
}
