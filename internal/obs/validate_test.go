package obs

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"
)

// getStatus performs a GET and returns the status code and body without
// failing on non-200 — the probe the validation tests need.
func getStatus(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if cerr := resp.Body.Close(); cerr != nil {
			t.Error(cerr)
		}
	}()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

// TestQueryParamValidation drives every malformed-parameter path on the
// per-process server: each must be rejected with HTTP 400 and a JSON body
// naming the offending parameter — never a silent clamp.
func TestQueryParamValidation(t *testing.T) {
	o := New(0)
	db := NewTSDB(o, TSDBOptions{History: 8})
	db.Sample(newTickTimes().next(time.Second))
	worker, err := Serve("127.0.0.1:0", o)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if cerr := worker.Close(); cerr != nil {
			t.Error(cerr)
		}
	}()

	longMatch := strings.Repeat("x", maxMatchLen+1)
	cases := []struct {
		name      string
		path      string // query string appended to /series or /metrics
		wantParam string // "" = expect 200
	}{
		{"series ok", "/series?window=30s&points=10", ""},
		{"series step ok", "/series?window=30s&step=5s", ""},
		{"metrics ok", "/metrics?match=obs", ""},
		{"bad window", "/series?window=banana", "window"},
		{"negative window", "/series?window=-5s", "window"},
		{"zero window", "/series?window=0s", "window"},
		{"bad points", "/series?points=zero", "points"},
		{"zero points", "/series?points=0", "points"},
		{"negative points", "/series?points=-3", "points"},
		{"bad step", "/series?window=30s&step=soon", "step"},
		{"step without window", "/series?step=5s", "step"},
		{"points and step", "/series?window=30s&points=5&step=5s", "step"},
		{"series long match", "/series?match=" + longMatch, "match"},
		{"series control match", "/series?match=%00", "match"},
		{"metrics long match", "/metrics?match=" + longMatch, "match"},
		{"metrics control match", "/metrics?match=%0a", "match"},
	}
	base := "http://" + worker.Addr()
	t.Run("worker", func(t *testing.T) {
		// The match filter must actually filter, not just validate: a
		// matching name keeps its lines, a non-matching one removes them.
		t.Run("match filters", func(t *testing.T) {
			code, body := getStatus(t, base+"/metrics?match=build_info")
			if code != http.StatusOK || !strings.Contains(body, "build_info{") {
				t.Fatalf("match=build_info lost the matching series (code %d):\n%.300s", code, body)
			}
			code, body = getStatus(t, base+"/metrics?match=no-such-metric")
			if code != http.StatusOK || strings.Contains(body, "build_info{") {
				t.Fatalf("match=no-such-metric still renders unmatched series (code %d):\n%.300s", code, body)
			}
		})
		for _, tc := range cases {
			t.Run(tc.name, func(t *testing.T) {
				code, body := getStatus(t, base+tc.path)
				if tc.wantParam == "" {
					if code != http.StatusOK {
						t.Fatalf("GET %s = %d, want 200: %s", tc.path, code, body)
					}
					return
				}
				if code != http.StatusBadRequest {
					t.Fatalf("GET %s = %d, want 400", tc.path, code)
				}
				var e struct {
					Error string `json:"error"`
					Param string `json:"param"`
				}
				if err := json.Unmarshal([]byte(body), &e); err != nil {
					t.Fatalf("400 body is not JSON: %q (%v)", body, err)
				}
				if e.Param != tc.wantParam || e.Error == "" {
					t.Errorf("400 body = %+v, want param %q and a message", e, tc.wantParam)
				}
			})
		}
	})
}

// TestBuildInfoOnMetrics: every registry carries the build_info gauge, so
// /metrics identifies the binary that produced it.
func TestBuildInfoOnMetrics(t *testing.T) {
	o := New(0)
	srv, err := Serve("127.0.0.1:0", o)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if cerr := srv.Close(); cerr != nil {
			t.Error(cerr)
		}
	}()
	body, _ := get(t, "http://"+srv.Addr()+"/metrics")
	if !strings.Contains(body, "build_info{") {
		t.Fatalf("/metrics lacks build_info:\n%.400s", body)
	}
	for _, label := range []string{"go_version=", "gomaxprocs=", "version="} {
		if !strings.Contains(body, label) {
			t.Errorf("build_info missing %s label", label)
		}
	}
	// The gauge must render value 1 so sum(build_info) counts processes.
	for _, line := range strings.Split(body, "\n") {
		if strings.HasPrefix(line, "build_info{") && !strings.HasSuffix(line, " 1") {
			t.Errorf("build_info line %q, want value 1", line)
		}
	}
}

// TestHubDropAccounting is the stalled-subscriber regression: a consumer
// that never drains its channel must not block publishers, and every
// event it misses must be counted on obs_events_dropped_total and
// /healthz.
func TestHubDropAccounting(t *testing.T) {
	o := New(0)
	srv, err := Serve("127.0.0.1:0", o)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if cerr := srv.Close(); cerr != nil {
			t.Error(cerr)
		}
	}()

	// A subscriber with a one-slot buffer that never reads: the first
	// event parks in the buffer, the rest must drop without blocking.
	_, cancel := o.Hub().Subscribe(1)
	defer cancel()
	const published = 50
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < published; i++ {
			o.Hub().Publish(Event{Type: "finding", Kind: "drop-test"})
		}
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Publish blocked on a stalled subscriber")
	}

	if d := o.Hub().Dropped(); d != published-1 {
		t.Errorf("Dropped() = %d, want %d (buffer holds one)", d, published-1)
	}
	var h Health
	body, _ := get(t, "http://"+srv.Addr()+"/healthz")
	if err := json.Unmarshal([]byte(body), &h); err != nil {
		t.Fatal(err)
	}
	if h.EventsDropped != published-1 {
		t.Errorf("/healthz events_dropped_total = %d, want %d", h.EventsDropped, published-1)
	}
	metrics, _ := get(t, "http://"+srv.Addr()+"/metrics")
	if !strings.Contains(metrics, "obs_events_dropped_total 49") {
		t.Errorf("/metrics does not expose the drop counter:\n%.200s", metrics)
	}
}
