// Package incident turns online detector findings into forensic bundles:
// when a flight detector fires on a live solve, the capturer writes a
// rate-limited, timestamped directory containing the triggering finding,
// the full flight log (contiguous, so core.ReplayFlight can re-execute
// the controller trajectory bit-exactly), the last window of the
// observer's time series, the energy-attribution report, and a goroutine
// dump — a replayable black box for the controller oscillation that
// happened at 3 a.m.
//
// The capturer subscribes to the observer's /events hub, so anything that
// publishes a "finding" event triggers it: the online detectors wired by
// Run/cmd/sssp, or a test publishing one by hand. Capture happens on the
// capturer's own goroutine; the solver's hot path never blocks on disk.
package incident

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/pprof"
	"sync"
	"time"

	"energysssp/internal/flight"
	"energysssp/internal/obs"
)

// Schema identifies the bundle layout; bumped if the file set changes.
const Schema = "energysssp-incident/v1"

// DefaultWindow is how much time-series history a bundle captures when
// Config leaves it zero.
const DefaultWindow = 30 * time.Second

// DefaultMinGap is the minimum spacing between bundles when Config leaves
// it zero: an oscillating controller fires findings every few iterations,
// and one bundle per incident beats a disk full of near-duplicates.
const DefaultMinGap = 30 * time.Second

// Config wires a Capturer. Dir and Observer are required; Flight is
// optional, and files whose source is absent are simply omitted from
// bundles.
type Config struct {
	// Dir is the artifact directory; bundles are subdirectories named
	// incident-<timestamp>-<seq>-<kind>. Created if missing.
	Dir string
	// Observer supplies the event hub (the finding source), the energy
	// report, the health snapshot, and — when one is attached — the
	// time-series store whose last Window lands in series.json.
	Observer *obs.Observer
	// Flight, when set, contributes the full flight log. The whole log is
	// written, not just a tail: replay requires a contiguous log from
	// iteration 0, and a truncated tail would break the black box's whole
	// point.
	Flight *flight.Recorder
	// Window is the series history to capture (DefaultWindow if zero).
	Window time.Duration
	// MinGap rate-limits bundles (DefaultMinGap if zero; negative
	// disables the limit, for tests).
	MinGap time.Duration
}

// Stats counts the capturer's lifetime activity.
type Stats struct {
	Captured   int64 // bundles written completely
	Suppressed int64 // findings dropped by the MinGap rate limit
	Failed     int64 // bundle attempts that hit an I/O error
}

// Capturer listens for finding events and writes incident bundles.
// Create with New, stop with Close; a nil *Capturer is a no-op.
type Capturer struct {
	cfg    Config
	events <-chan obs.Event
	cancel func()

	mu      sync.Mutex
	last    time.Time // wall time of the last bundle
	seq     int64
	stats   Stats
	lastErr error
	lastDir string

	closeOnce sync.Once
	stop      chan struct{}
	wg        sync.WaitGroup
}

// New validates cfg, creates the artifact directory, and starts the
// capture goroutine.
func New(cfg Config) (*Capturer, error) {
	if cfg.Dir == "" {
		return nil, errors.New("incident: Config.Dir is required")
	}
	if cfg.Observer == nil {
		return nil, errors.New("incident: Config.Observer is required")
	}
	if cfg.Window == 0 {
		cfg.Window = DefaultWindow
	}
	if cfg.MinGap == 0 {
		cfg.MinGap = DefaultMinGap
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("incident: %w", err)
	}
	c := &Capturer{cfg: cfg, stop: make(chan struct{})}
	c.events, c.cancel = cfg.Observer.Hub().Subscribe(256)
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		for {
			select {
			case <-c.stop:
				// Drain findings already buffered so one fired just before
				// shutdown still leaves its bundle.
				for {
					select {
					case ev := <-c.events:
						c.handle(ev)
					default:
						return
					}
				}
			case ev := <-c.events:
				c.handle(ev)
			}
		}
	}()
	return c, nil
}

// Close stops the capture goroutine (draining buffered findings first)
// and unsubscribes from the hub. Idempotent; nil-safe.
func (c *Capturer) Close() {
	if c == nil {
		return
	}
	c.closeOnce.Do(func() {
		close(c.stop)
		c.wg.Wait()
		c.cancel()
	})
}

// Stats returns the lifetime capture counters.
func (c *Capturer) Stats() Stats {
	if c == nil {
		return Stats{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// LastBundle returns the directory of the most recent complete bundle
// ("" when none) and the last capture error (nil when none).
func (c *Capturer) LastBundle() (string, error) {
	if c == nil {
		return "", nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lastDir, c.lastErr
}

func (c *Capturer) handle(ev obs.Event) {
	if ev.Type != "finding" {
		return
	}
	now := time.Now()
	c.mu.Lock()
	if c.cfg.MinGap > 0 && !c.last.IsZero() && now.Sub(c.last) < c.cfg.MinGap {
		c.stats.Suppressed++
		c.mu.Unlock()
		return
	}
	c.last = now
	c.seq++
	seq := c.seq
	c.mu.Unlock()

	dir, err := c.capture(ev, now, seq)
	c.mu.Lock()
	if err != nil {
		c.stats.Failed++
		c.lastErr = err
	} else {
		c.stats.Captured++
		c.lastDir = dir
	}
	c.mu.Unlock()
	if err == nil {
		// Announce the bundle on the same stream that triggered it, so
		// obswatch (and any other subscriber) can point at the artifact.
		c.cfg.Observer.Hub().Publish(obs.Event{
			Type: "incident", Solve: ev.Solve, Kind: ev.Kind, Detail: dir,
		})
	}
}

// manifest is the bundle's completeness marker, written last: a reader
// that finds manifest.json knows every listed file is fully on disk.
type manifest struct {
	Schema   string    `json:"schema"`
	Time     string    `json:"time"` // RFC3339Nano
	Finding  obs.Event `json:"finding"`
	Files    []string  `json:"files"`
	WindowMs int64     `json:"series_window_ms"`
}

func (c *Capturer) capture(ev obs.Event, now time.Time, seq int64) (string, error) {
	name := fmt.Sprintf("incident-%s-%03d-%s",
		now.UTC().Format("20060102T150405"), seq, sanitize(ev.Kind))
	dir := filepath.Join(c.cfg.Dir, name)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	m := manifest{
		Schema:   Schema,
		Time:     now.UTC().Format(time.RFC3339Nano),
		Finding:  ev,
		WindowMs: c.cfg.Window.Milliseconds(),
	}
	write := func(file string, fn func(io.Writer) error) error {
		if err := writeFile(filepath.Join(dir, file), fn); err != nil {
			return fmt.Errorf("incident: %s: %w", file, err)
		}
		m.Files = append(m.Files, file)
		return nil
	}

	if err := write("finding.json", func(w io.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(ev)
	}); err != nil {
		return "", err
	}
	if c.cfg.Flight != nil {
		if err := write("flight.jsonl", c.cfg.Flight.WriteJSONL); err != nil {
			return "", err
		}
	}
	o := c.cfg.Observer
	if db := o.TSDB(); db != nil {
		if err := write("series.json", func(w io.Writer) error {
			return db.WriteJSON(w, obs.SeriesQuery{Window: c.cfg.Window})
		}); err != nil {
			return "", err
		}
	}
	if err := write("energy.json", o.WriteEnergyJSON); err != nil {
		return "", err
	}
	if err := write("health.json", o.WriteHealthJSON); err != nil {
		return "", err
	}
	if err := write("goroutines.txt", func(w io.Writer) error {
		return pprof.Lookup("goroutine").WriteTo(w, 1)
	}); err != nil {
		return "", err
	}

	if err := writeFile(filepath.Join(dir, "manifest.json"), func(w io.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(m)
	}); err != nil {
		return "", fmt.Errorf("incident: manifest.json: %w", err)
	}
	return dir, nil
}

// writeFile creates path, runs fn, and folds the close error into fn's
// (a short write surfaced at close must fail the bundle, not vanish).
func writeFile(path string, fn func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = fn(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// sanitize keeps bundle names portable: finding kinds are short
// kebab-case identifiers, but the event came off the wire.
func sanitize(s string) string {
	if s == "" {
		return "unknown"
	}
	b := []byte(s)
	for i, ch := range b {
		switch {
		case ch >= 'a' && ch <= 'z', ch >= 'A' && ch <= 'Z',
			ch >= '0' && ch <= '9', ch == '-', ch == '_':
		default:
			b[i] = '_'
		}
	}
	if len(b) > 40 {
		b = b[:40]
	}
	return string(b)
}
