// Command obswatch is a live terminal dashboard for a running solver
// process: it attaches to the /events NDJSON stream served by -obs-listen
// (cmd/sssp, cmd/experiments, or any embedder of ServeMetrics) and renders
// one line per active solve — iteration, frontier and far-queue sizes, the
// X² parallelism signal, applied delta, energy, and simulated time —
// updating in place, plus sparklines of the server's time-series store
// (/series, when a TimeSeriesStore is attached) and a rolling tail of
// detector findings, incident bundles, and solve lifecycle events.
//
// The dashboard runs on the terminal's alternate screen and restores the
// primary screen and cursor on exit, SIGINT, or SIGTERM. A dropped stream
// reconnects automatically with jittered exponential backoff, so obswatch
// survives solver restarts. For CI and scripting, -once prints a single
// plain-text snapshot of /healthz and /series and exits.
//
// Examples:
//
//	obswatch -addr localhost:9090
//	obswatch -addr localhost:9090 -interval 100ms -raw
//	obswatch -addr localhost:9090 -once
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"os"
	"os/signal"
	"sort"
	"strings"
	"syscall"
	"time"

	"energysssp/internal/obs"
)

// solveRow is the latest known state of one solve, built from its
// lifecycle events and heartbeats.
type solveRow struct {
	ev    obs.Event // last heartbeat (or lifecycle event before the first one)
	done  bool
	seen  time.Time
	order int // arrival order, for a stable display
}

// seriesSnap is the decoded /series payload (see obs.TSDB.WriteJSON).
type seriesSnap struct {
	PeriodMs int64 `json:"period_ms"`
	Samples  int64 `json:"samples"`
	Series   []struct {
		Name   string       `json:"name"`
		Kind   string       `json:"kind"`
		Points [][2]float64 `json:"points"`
	} `json:"series"`
}

const (
	findingTail = 8
	sparkRows   = 10 // max sparkline rows on the dashboard
	sparkWidth  = 48 // points per sparkline

	reconnectBase = 200 * time.Millisecond
	reconnectCap  = 10 * time.Second
)

var sparkRunes = []rune("▁▂▃▄▅▆▇█")

func main() {
	var (
		addr     = flag.String("addr", "localhost:9090", "host:port of the solver's -obs-listen endpoint")
		interval = flag.Duration("interval", 500*time.Millisecond, "heartbeat interval to request from the server")
		wait     = flag.Duration("wait", 10*time.Second, "give up if no connection succeeds for this long (the endpoint appears only once the solver has loaded its graph; 0 = retry forever)")
		raw      = flag.Bool("raw", false, "print the NDJSON stream as-is instead of rendering the dashboard")
		once     = flag.Bool("once", false, "print one plain-text snapshot of /healthz and /series and exit (for CI/scripting)")
		window   = flag.Duration("window", time.Minute, "time-series window to request for sparklines")
		match    = flag.String("match", "solve_x2,solve_frontier,solve_delta,perf_phase_cpu_fraction", "comma-separated substrings selecting which series become sparklines")
	)
	flag.Parse()

	client := &http.Client{Timeout: 5 * time.Second}
	if *once {
		if err := snapshot(os.Stdout, client, *addr, *window, *match); err != nil {
			fatal(err)
		}
		return
	}

	term := newTerm(!*raw)
	defer term.restore()

	// Restore the primary screen and cursor on ^C/TERM so the terminal is
	// left usable no matter how obswatch dies.
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	//lint:ignore leakspawn one-off signal handler; lives for the process lifetime by design
	go func() {
		sig := <-sigc
		term.restore()
		code := 130 // SIGINT
		if sig == syscall.SIGTERM {
			code = 143
		}
		os.Exit(code)
	}()

	u := url.URL{Scheme: "http", Host: *addr, Path: "/events",
		RawQuery: url.Values{"interval": {interval.String()}}.Encode()}

	d := &dash{
		addr:    *addr,
		client:  client,
		window:  *window,
		matches: splitMatches(*match),
		rows:    map[string]*solveRow{},
	}

	// Reconnect loop: jittered exponential backoff, reset after any stream
	// that delivered events (a healthy connection that later dropped).
	backoff := reconnectBase
	deadline := time.Now().Add(*wait)
	for attempt := 0; ; attempt++ {
		resp, err := http.Get(u.String())
		if err == nil && resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("GET %s: status %s", u.String(), resp.Status)
			//lint:ignore errcheck retrying anyway; the status is the error that matters
			resp.Body.Close()
		}
		if err != nil {
			if *wait > 0 && time.Now().After(deadline) && attempt > 0 {
				term.restore()
				fatal(err)
			}
			// Full jitter: sleep uniform in [0, backoff), then double.
			time.Sleep(time.Duration(rand.Int63n(int64(backoff))))
			if backoff *= 2; backoff > reconnectCap {
				backoff = reconnectCap
			}
			continue
		}
		d.connects++
		delivered := d.stream(resp.Body, *raw, term)
		//lint:ignore errcheck nothing to do with a close error after the stream ended
		resp.Body.Close()
		if delivered > 0 {
			backoff = reconnectBase
			deadline = time.Now().Add(*wait)
		}
		if *raw {
			// Raw mode is a tap, not a dashboard: one stream, then out.
			return
		}
	}
}

// term owns the terminal state the dashboard perturbs: the alternate
// screen and cursor visibility. restore is idempotent, so every exit path
// (normal, fatal, signal) can call it.
type term struct {
	active   bool
	restored bool
}

func newTerm(dashboard bool) *term {
	t := &term{active: dashboard}
	if dashboard {
		// Alternate screen + hidden cursor: the dashboard repaints freely
		// and the user's scrollback survives untouched.
		fmt.Print("\x1b[?1049h\x1b[?25l")
	}
	return t
}

func (t *term) restore() {
	if !t.active || t.restored {
		return
	}
	t.restored = true
	fmt.Print("\x1b[?25h\x1b[?1049l")
}

// dash accumulates stream state across reconnects: solves and findings
// survive a dropped connection, so a solver restart doesn't blank the
// operator's history.
type dash struct {
	addr     string
	client   *http.Client
	window   time.Duration
	matches  []string
	rows     map[string]*solveRow
	findings []obs.Event
	total    int
	dropped  int
	connects int

	series     *seriesSnap
	seriesAt   time.Time
	seriesErr  error
	lastDraw   time.Time
	lastSeries time.Time
}

// stream consumes one /events connection until it drops, returning how
// many events it delivered (0 means the connection was useless and backoff
// should keep growing).
func (d *dash) stream(body io.Reader, raw bool, t *term) int {
	delivered := 0
	scan := bufio.NewScanner(body)
	scan.Buffer(make([]byte, 64<<10), 1<<20)
	for scan.Scan() {
		delivered++
		if raw {
			fmt.Println(scan.Text())
			continue
		}
		var ev obs.Event
		if err := json.Unmarshal(scan.Bytes(), &ev); err != nil {
			d.dropped++
			continue
		}
		d.total++
		d.apply(ev)
		// Redraw at most ~10 Hz no matter how fast events arrive; refresh
		// the sparkline data at most once a second.
		if time.Since(d.lastDraw) >= 100*time.Millisecond {
			if time.Since(d.lastSeries) >= time.Second {
				d.refreshSeries()
				d.lastSeries = time.Now()
			}
			d.draw()
			d.lastDraw = time.Now()
		}
	}
	if !raw {
		d.refreshSeries()
		d.draw()
	}
	return delivered
}

func (d *dash) apply(ev obs.Event) {
	switch ev.Type {
	case "hello":
		// Connection banner; nothing to track.
	case "solve-start":
		d.rows[ev.Solve] = &solveRow{ev: ev, seen: time.Now(), order: len(d.rows)}
	case "heartbeat":
		r := d.rows[ev.Solve]
		if r == nil {
			r = &solveRow{order: len(d.rows)}
			d.rows[ev.Solve] = r
		}
		r.ev, r.seen = ev, time.Now()
	case "solve-end":
		r := d.rows[ev.Solve]
		if r == nil {
			r = &solveRow{ev: ev, order: len(d.rows)}
			d.rows[ev.Solve] = r
		}
		// Keep the richer heartbeat payload; fold in the final totals.
		if ev.Iter > 0 {
			r.ev.Iter = ev.Iter
		}
		if ev.EnergyJ > 0 {
			r.ev.EnergyJ = ev.EnergyJ
		}
		r.done, r.seen = true, time.Now()
	case "finding", "incident":
		d.findings = append(d.findings, ev)
		if len(d.findings) > findingTail {
			d.findings = d.findings[len(d.findings)-findingTail:]
		}
	}
}

func (d *dash) refreshSeries() {
	snap, err := fetchSeries(d.client, d.addr, d.window, sparkWidth)
	d.seriesErr = err
	if err == nil {
		d.series, d.seriesAt = snap, time.Now()
	}
}

// draw repaints the whole dashboard from the top-left of the alternate
// screen. Full repaints at ≤10 Hz are well under what any terminal
// handles, and they keep the renderer stateless.
func (d *dash) draw() {
	var b strings.Builder
	b.WriteString("\x1b[H\x1b[2J")
	fmt.Fprintf(&b, "obswatch %s — %d events", d.addr, d.total)
	if d.dropped > 0 {
		fmt.Fprintf(&b, " (%d unparseable)", d.dropped)
	}
	if d.connects > 1 {
		fmt.Fprintf(&b, " (reconnected ×%d)", d.connects-1)
	}
	b.WriteString("\n\n")

	names := make([]string, 0, len(d.rows))
	for name := range d.rows {
		names = append(names, name)
	}
	sort.Slice(names, func(i, j int) bool { return d.rows[names[i]].order < d.rows[names[j]].order })

	fmt.Fprintf(&b, "%-22s %-9s %6s %9s %9s %9s %9s %8s %10s %9s\n",
		"SOLVE", "STRATEGY", "STATE", "ITER", "FRONTIER", "FAR", "X2", "DELTA", "ENERGY", "SIM")
	for _, name := range names {
		r := d.rows[name]
		state := "run"
		if r.done {
			state = "done"
		} else if time.Since(r.seen) > 3*time.Second {
			state = "stale"
		}
		ev := r.ev
		fmt.Fprintf(&b, "%-22s %-9s %6s %9d %9d %9d %9d %8.2f %9.3fJ %7.1fms\n",
			trunc(ev.Solve, 22), trunc(ev.Strategy, 9), state,
			ev.Iter, ev.Frontier, ev.FarLen, ev.X2, ev.Delta, ev.EnergyJ, ev.SimMs)
	}
	if len(d.rows) == 0 {
		b.WriteString("(no solves yet — waiting for solve-start)\n")
	}

	d.drawSparks(&b)

	if len(d.findings) > 0 {
		b.WriteString("\nFINDINGS (online detectors / incident bundles)\n")
		for _, f := range d.findings {
			label := f.Kind
			if f.Type == "incident" {
				label = "bundle:" + f.Kind
			}
			fmt.Fprintf(&b, "  %s  %-22s k=%-6d %s\n", f.T, label, f.Iter, f.Detail)
		}
	}
	os.Stdout.WriteString(b.String()) //lint:ignore errcheck a failed terminal write has no recovery path
}

func (d *dash) drawSparks(b *strings.Builder) {
	if d.series == nil {
		if d.seriesErr != nil {
			fmt.Fprintf(b, "\nSERIES: unavailable (%v)\n", d.seriesErr)
		}
		return
	}
	fmt.Fprintf(b, "\nSERIES (/series, %v window, %v old)\n",
		d.window, time.Since(d.seriesAt).Round(time.Second))
	writeSparks(b, d.series, d.matches, sparkRows)
}

// writeSparks renders up to maxRows sparklines for series whose names
// match any of the substrings, shared by the dashboard and -once.
func writeSparks(b *strings.Builder, snap *seriesSnap, matches []string, maxRows int) {
	shown := 0
	for _, s := range snap.Series {
		if !matchesAny(s.Name, matches) || len(s.Points) == 0 {
			continue
		}
		if shown++; shown > maxRows {
			fmt.Fprintf(b, "  … (more series match; narrow -match)\n")
			return
		}
		last := s.Points[len(s.Points)-1][1]
		fmt.Fprintf(b, "  %-44s %s %12.4g\n", trunc(s.Name, 44), spark(s.Points), last)
	}
	if shown == 0 {
		fmt.Fprintf(b, "  (no series match %q; server holds %d samples)\n",
			strings.Join(matches, ","), snap.Samples)
	}
}

// spark renders a point series as a fixed-width block-element sparkline,
// scaled to the window's own min/max (a flat series renders as a low bar).
func spark(pts [][2]float64) string {
	lo, hi := pts[0][1], pts[0][1]
	for _, p := range pts {
		if p[1] < lo {
			lo = p[1]
		}
		if p[1] > hi {
			hi = p[1]
		}
	}
	var b strings.Builder
	for _, p := range pts {
		i := 0
		if hi > lo {
			i = int((p[1] - lo) / (hi - lo) * float64(len(sparkRunes)-1))
		}
		b.WriteRune(sparkRunes[i])
	}
	return b.String()
}

// snapshot prints one plain-text /healthz + /series snapshot: no escape
// codes, no loop — greppable output for CI and scripts.
func snapshot(w io.Writer, client *http.Client, addr string, window time.Duration, match string) error {
	hb, err := fetchBody(client, "http://"+addr+"/healthz")
	if err != nil {
		return err
	}
	var h obs.Health
	if err := json.Unmarshal(hb, &h); err != nil {
		return fmt.Errorf("/healthz: %w", err)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "status=%s uptime=%.1fs solves=%d active / %d retired / %d evicted\n",
		h.Status, h.UptimeSeconds, h.ActiveSolves, h.RetiredSolves, h.EvictedSolves)
	fmt.Fprintf(&b, "tsdb: %d samples, %d series; findings: %d", h.TSDBSamples, h.TSDBSeries, h.FindingsTotal)
	if h.LastFinding != "" {
		fmt.Fprintf(&b, " (last %s)", h.LastFinding)
	}
	b.WriteString("\n")

	if snap, err := fetchSeries(client, addr, window, sparkWidth); err != nil {
		// A server without a TimeSeriesStore serves no /series; the health
		// snapshot above already said so (0 samples).
		fmt.Fprintf(&b, "series: unavailable (%v)\n", err)
	} else {
		writeSparks(&b, snap, splitMatches(match), 1<<30)
	}
	_, err = io.WriteString(w, b.String())
	return err
}

func fetchSeries(client *http.Client, addr string, window time.Duration, points int) (*seriesSnap, error) {
	u := url.URL{Scheme: "http", Host: addr, Path: "/series",
		RawQuery: url.Values{
			"window": {window.String()},
			"points": {fmt.Sprint(points)},
		}.Encode()}
	body, err := fetchBody(client, u.String())
	if err != nil {
		return nil, err
	}
	var snap seriesSnap
	if err := json.Unmarshal(body, &snap); err != nil {
		return nil, fmt.Errorf("/series: %w", err)
	}
	return &snap, nil
}

func fetchBody(client *http.Client, url string) ([]byte, error) {
	resp, err := client.Get(url)
	if err != nil {
		return nil, err
	}
	defer func() {
		//lint:ignore errcheck the payload was already read or the request already failed
		resp.Body.Close()
	}()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %s", url, resp.Status)
	}
	return io.ReadAll(resp.Body)
}

func splitMatches(s string) []string {
	var out []string
	for _, m := range strings.Split(s, ",") {
		if m = strings.TrimSpace(m); m != "" {
			out = append(out, m)
		}
	}
	return out
}

func matchesAny(name string, matches []string) bool {
	if len(matches) == 0 {
		return true
	}
	for _, m := range matches {
		if strings.Contains(name, m) {
			return true
		}
	}
	return false
}

func trunc(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n-1] + "…"
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "obswatch:", err)
	os.Exit(1)
}
