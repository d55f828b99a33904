package incident

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"energysssp/internal/core"
	"energysssp/internal/flight"
	"energysssp/internal/gen"
	"energysssp/internal/obs"
	"energysssp/internal/sim"
	"energysssp/internal/sssp"
)

// waitFor polls cond for up to the deadline; incident capture runs on its
// own goroutine, so tests observe it asynchronously.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestIncidentBundleFromLiveSolve is the acceptance-criteria path end to
// end: a live self-tuning solve with an (aggressively sensitized) online
// detector fires a finding, and the capturer writes a complete bundle
// whose flight log replays bit-exactly through core.ReplayFlight.
func TestIncidentBundleFromLiveSolve(t *testing.T) {
	dir := t.TempDir()
	o := obs.New(0)
	db := obs.NewTSDB(o, obs.TSDBOptions{History: 256})
	rec := flight.NewRecorder(0)
	o.SetFlight(rec)

	// Mirror the api.go wiring, but with a detector sensitized so a
	// healthy small solve still "escapes": band 1.01 around an absurd
	// set-point guarantees X² is outside it right after bootstrap.
	hub := o.Hub()
	rec.SetOnline(flight.NewOnlineDetector(flight.DetectOptions{
		EscapeBand: 1.01, MinEscape: 1, Bootstrap: 1,
	}, func(f flight.Finding) {
		hub.Publish(obs.Event{Type: "finding", Kind: string(f.Kind), Iter: f.FirstK, Detail: f.Detail})
	}))

	c, err := New(Config{Dir: dir, Observer: o, Flight: rec, Window: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	g := gen.CalLike(0.02, 11)
	mach := sim.NewMachine(sim.TK1())
	db.Sample(time.Now()) // at least one tick of pre-incident history
	res, err := core.Solve(g, 0, core.Config{P: 1e9}, &sssp.Options{Obs: o, Flight: rec, Machine: mach})
	if err != nil {
		t.Fatal(err)
	}
	if res.Reached == 0 {
		t.Fatal("solve reached nothing")
	}
	db.Sample(time.Now())

	waitFor(t, "a bundle", func() bool { return c.Stats().Captured >= 1 })
	bundle, lastErr := c.LastBundle()
	if lastErr != nil {
		t.Fatalf("capture error: %v", lastErr)
	}

	// Complete bundle: every artifact present, manifest last.
	for _, f := range []string{"finding.json", "flight.jsonl", "series.json",
		"energy.json", "health.json", "goroutines.txt", "manifest.json"} {
		st, err := os.Stat(filepath.Join(bundle, f))
		if err != nil {
			t.Fatalf("bundle missing %s: %v", f, err)
		}
		if st.Size() == 0 {
			t.Fatalf("bundle file %s is empty", f)
		}
	}

	var m struct {
		Schema  string    `json:"schema"`
		Finding obs.Event `json:"finding"`
		Files   []string  `json:"files"`
	}
	mb, err := os.ReadFile(filepath.Join(bundle, "manifest.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(mb, &m); err != nil {
		t.Fatalf("manifest not JSON: %v", err)
	}
	if m.Schema != Schema || m.Finding.Kind != string(flight.FindingSetPointEscape) {
		t.Fatalf("manifest = %+v", m)
	}
	if len(m.Files) != 6 {
		t.Fatalf("manifest lists %d files: %v", len(m.Files), m.Files)
	}

	// The flight log must be contiguous and replay bit-exactly: the black
	// box is only worth keeping if it can be re-executed.
	ff, err := os.Open(filepath.Join(bundle, "flight.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	log, err := flight.ReadJSONL(ff)
	if cerr := ff.Close(); cerr != nil {
		t.Error(cerr)
	}
	if err != nil {
		t.Fatalf("bundle flight log unreadable: %v", err)
	}
	if !log.Contiguous() {
		t.Fatal("bundle flight log is not contiguous from iteration 0")
	}
	// The bundle is written while the solve is still running, so the log
	// is a contiguous prefix of the run — anywhere from the triggering
	// iteration up to the full log.
	if n := len(log.Records); n < 1 || n > res.Iterations {
		t.Fatalf("flight log has %d records, solve ran %d iterations", n, res.Iterations)
	}
	rep, err := core.ReplayFlight(log)
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if !rep.OK() {
		t.Fatalf("bundle flight log does not replay bit-exactly: %+v", rep.Mismatches)
	}

	// The series window holds real pre-incident history.
	var series struct {
		Samples int64 `json:"samples"`
		Series  []struct {
			Name string `json:"name"`
		} `json:"series"`
	}
	sb, err := os.ReadFile(filepath.Join(bundle, "series.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(sb, &series); err != nil {
		t.Fatalf("series.json not JSON: %v", err)
	}
	if series.Samples < 1 || len(series.Series) == 0 {
		t.Fatalf("series.json empty: samples=%d series=%d", series.Samples, len(series.Series))
	}

	// The hub announced the bundle (incident event) — check via healthz
	// finding counters instead of racing a subscription: at least the
	// triggering finding must be on record.
	if total, last := hub.Findings(); total < 1 || last.IsZero() {
		t.Fatalf("hub finding bookkeeping: total=%d last=%v", total, last)
	}
}

// TestIncidentRateLimit publishes findings straight into the hub: the
// first captures, the burst behind it is suppressed by MinGap, and a
// non-finding event does nothing.
func TestIncidentRateLimit(t *testing.T) {
	dir := t.TempDir()
	o := obs.New(0)
	c, err := New(Config{Dir: dir, Observer: o, MinGap: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	o.Hub().Publish(obs.Event{Type: "heartbeat", Solve: "x"}) // ignored
	for i := 0; i < 5; i++ {
		o.Hub().Publish(obs.Event{Type: "finding", Kind: "delta-oscillation", Solve: "x"})
	}
	waitFor(t, "suppression", func() bool {
		s := c.Stats()
		return s.Captured == 1 && s.Suppressed == 4
	})
	s := c.Stats()
	if s.Failed != 0 {
		t.Fatalf("stats = %+v", s)
	}

	// Without flight or series sources the bundle still completes, just
	// without those files.
	bundle, lastErr := c.LastBundle()
	if lastErr != nil {
		t.Fatal(lastErr)
	}
	if _, err := os.Stat(filepath.Join(bundle, "manifest.json")); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(bundle, "flight.jsonl")); !os.IsNotExist(err) {
		t.Fatalf("flight.jsonl should be absent without a recorder: %v", err)
	}
	if !strings.Contains(filepath.Base(bundle), "delta-oscillation") {
		t.Fatalf("bundle name %q does not carry the finding kind", bundle)
	}
}

// TestIncidentCloseDrains ensures a finding published just before Close
// still produces its bundle: Close drains the subscription first.
func TestIncidentCloseDrains(t *testing.T) {
	dir := t.TempDir()
	o := obs.New(0)
	c, err := New(Config{Dir: dir, Observer: o, MinGap: -1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		o.Hub().Publish(obs.Event{Type: "finding", Kind: "alpha-collapse"})
	}
	c.Close()
	c.Close() // idempotent
	if s := c.Stats(); s.Captured != 3 || s.Suppressed != 0 {
		t.Fatalf("MinGap<0 must disable the limit and Close must drain: %+v", s)
	}
}

func TestIncidentConfigValidation(t *testing.T) {
	if _, err := New(Config{Observer: obs.New(0)}); err == nil {
		t.Fatal("missing Dir must error")
	}
	if _, err := New(Config{Dir: t.TempDir()}); err == nil {
		t.Fatal("missing Observer must error")
	}
	var c *Capturer
	c.Close()
	if s := c.Stats(); s != (Stats{}) {
		t.Fatalf("nil Stats = %+v", s)
	}
	if d, err := c.LastBundle(); d != "" || err != nil {
		t.Fatalf("nil LastBundle = %q, %v", d, err)
	}
}
