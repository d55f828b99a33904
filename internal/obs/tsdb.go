package obs

import (
	"encoding/json"
	"io"
	"sort"
	"strings"
	"sync"
	"time"
)

// DefaultSamplePeriod is the tsdb tick when TSDBOptions leaves it zero:
// four samples a second is fine-grained enough to see a controller
// oscillation (findings fire on ~6-iteration windows) and coarse enough
// that a day of serving is still only ~346k ticks over the ring.
const DefaultSamplePeriod = 250 * time.Millisecond

// DefaultHistory is the per-series ring capacity when TSDBOptions leaves
// it zero: 960 samples = 4 minutes at the default period, sized so an
// incident bundle's "last N seconds" window always fits.
const DefaultHistory = 960

// DefaultMaxSeries bounds how many series the store will track when
// TSDBOptions leaves it zero. At ~25 series per scope and a 16-deep
// retired ring plus the fleet registry, 1024 leaves headroom for tens of
// concurrent solves; series past the cap are counted, not stored.
const DefaultMaxSeries = 1024

// TSDBOptions configures NewTSDB. Zero values select the defaults above.
type TSDBOptions struct {
	SamplePeriod time.Duration // interval between ticks
	History      int           // samples retained per series (ring capacity)
	MaxSeries    int           // hard cap on tracked series
}

func (o TSDBOptions) withDefaults() TSDBOptions {
	if o.SamplePeriod <= 0 {
		o.SamplePeriod = DefaultSamplePeriod
	}
	if o.History <= 0 {
		o.History = DefaultHistory
	}
	if o.MaxSeries <= 0 {
		o.MaxSeries = DefaultMaxSeries
	}
	return o
}

// tsSeries is one stored series: a fixed ring of float64 samples plus the
// closure that produces the next value. Counters store per-tick deltas
// (rates), gauges and histogram quantiles store the value read.
type tsSeries struct {
	name   string
	kind   string // "counter" (delta), "gauge", or "quantile"
	sample func() float64
	delta  bool
	prev   float64 // last raw value, for delta series

	// hist links the p50 quantile series back to its source histogram so
	// /series can attach the current bucket exemplars (span links) to
	// exactly one series per histogram instead of repeating them 3×.
	hist *Histogram

	firstTick uint64 // global tick of this series' first sample
	n         uint64 // samples taken so far
	vals      []float64
}

func (sr *tsSeries) push() {
	v := sr.sample()
	if sr.delta {
		v, sr.prev = v-sr.prev, v
	}
	sr.vals[int(sr.n%uint64(len(sr.vals)))] = v
	sr.n++
}

// tsSource is the set of series bound from one registry (the fleet's, or
// one scope's plus that scope's live-stat synthetics). gen is the last
// tick the source's owner was still reachable; a source that misses a
// tick has been evicted from the observer and is swept.
type tsSource struct {
	gen    uint64
	bound  int // registry entries already bound (index into r.entries)
	series []*tsSeries
}

// TSDB is a fixed-capacity in-process time-series store over an
// Observer's metric plane. Each tick it refreshes the fleet scrape hooks,
// then samples every fleet and per-scope registry series — counters as
// per-tick deltas, gauges (including gauge funcs) as values, histograms
// as their p50/p95/p99 quantiles — plus each scope's live solve stats,
// into per-series rings. Steady state (no scope churn, no new metric
// registrations) allocates nothing: binding a series allocates its ring
// once, sampling it never does.
//
// Lock order: t.mu is taken first and held across a tick; the registry
// and observer locks (r.mu, o.mu) are only ever taken under it, never the
// reverse. Sample closures run with only t.mu held, so fleet gauge funcs
// that lock o.mu are safe.
//
// A nil *TSDB is a no-op.
type TSDB struct {
	o      *Observer
	period time.Duration
	hist   int
	maxSer int

	mu      sync.Mutex
	tick    uint64  // completed ticks; during Sample, the tick in progress
	times   []int64 // unix ms per tick, ring of hist
	sources map[*Registry]*tsSource
	nSeries int
	dropped int64 // series refused because the MaxSeries cap was hit

	hookScratch  []func()
	scopeScratch []*Scope

	startOnce sync.Once
	stopOnce  sync.Once
	stop      chan struct{}
	wg        sync.WaitGroup
}

// NewTSDB builds a time-series store over o's metric plane and attaches
// it (o.SetTSDB) so the obs server can serve it at /series. Returns nil
// for a nil observer, which every method tolerates.
func NewTSDB(o *Observer, opt TSDBOptions) *TSDB {
	if o == nil {
		return nil
	}
	opt = opt.withDefaults()
	t := &TSDB{
		o:       o,
		period:  opt.SamplePeriod,
		hist:    opt.History,
		maxSer:  opt.MaxSeries,
		times:   make([]int64, opt.History),
		sources: make(map[*Registry]*tsSource),
		stop:    make(chan struct{}),
	}
	o.SetTSDB(t)
	return t
}

// Period returns the configured tick interval.
func (t *TSDB) Period() time.Duration {
	if t == nil {
		return 0
	}
	return t.period
}

// Stats reports the store's population: completed ticks, live series, and
// series refused because the MaxSeries cap was hit.
func (t *TSDB) Stats() (ticks int64, series int, dropped int64) {
	if t == nil {
		return 0, 0, 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return int64(t.tick), t.nSeries, t.dropped
}

// SampleCount returns the number of completed ticks.
func (t *TSDB) SampleCount() int64 {
	ticks, _, _ := t.Stats()
	return ticks
}

// Start launches the background sampler goroutine: one immediate tick,
// then one per period until Stop. Idempotent; a nil store is a no-op.
func (t *TSDB) Start() {
	if t == nil {
		return
	}
	t.startOnce.Do(func() {
		t.wg.Add(1)
		go func() {
			defer t.wg.Done()
			tick := time.NewTicker(t.period)
			defer tick.Stop()
			t.Sample(time.Now())
			for {
				select {
				case <-t.stop:
					return
				case now := <-tick.C:
					t.Sample(now)
				}
			}
		}()
	})
}

// Stop halts the background sampler and waits for it to exit. Idempotent;
// safe before Start (the sampler just never runs) and on a nil store.
func (t *TSDB) Stop() {
	if t == nil {
		return
	}
	t.stopOnce.Do(func() {
		close(t.stop)
		t.wg.Wait()
	})
}

// Sample takes one tick at the given host time: refresh the fleet scrape
// hooks (runtime gauges, lazily registered worker gauges), bind any
// series that appeared since the last tick, push one sample into every
// bound ring, and sweep sources whose scope the observer has evicted.
// Usually driven by Start's goroutine; exposed for tests and for callers
// that want explicit ticks.
func (t *TSDB) Sample(now time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()

	// Refresh hook-fed gauges first so this tick reads current values.
	// Hooks must run outside r.mu (they register gauges, which locks it).
	r := t.o.Reg
	r.mu.Lock()
	t.hookScratch = append(t.hookScratch[:0], r.hooks...)
	r.mu.Unlock()
	for _, h := range t.hookScratch {
		h()
	}

	tick := t.tick
	t.times[int(tick%uint64(t.hist))] = now.UnixMilli()

	// Fleet registry.
	fs := t.sources[r]
	if fs == nil {
		fs = &tsSource{}
		t.sources[r] = fs
	}
	fs.gen = tick
	t.bindRegistry(fs, r)
	for _, sr := range fs.series {
		sr.push()
	}

	// Scopes: snapshot the active + retired lists under o.mu, then sample
	// outside it — scope series closures never take o.mu, but holding it
	// here would deadlock against fleet gauge funcs on the next tick's
	// hook refresh and invert the documented lock order.
	t.scopeScratch = t.o.appendScopes(t.scopeScratch[:0])
	for i, s := range t.scopeScratch {
		src := t.sources[s.reg]
		if src == nil {
			src = &tsSource{}
			t.sources[s.reg] = src
			t.bindScopeStats(src, s)
		}
		src.gen = tick
		t.bindRegistry(src, s.reg)
		for _, sr := range src.series {
			sr.push()
		}
		t.scopeScratch[i] = nil // don't pin evicted scopes via the scratch
	}

	// Sweep sources whose scope left both the active set and the retired
	// ring this tick: their registries are unreachable, their history dies
	// with them (the eviction accumulator keeps the fleet totals exact).
	for reg, src := range t.sources {
		if src.gen != tick {
			t.nSeries -= len(src.series)
			delete(t.sources, reg)
		}
	}
	t.tick++
}

// addSeries binds one series (subject to the MaxSeries cap) starting at
// the tick currently in progress.
func (t *TSDB) addSeries(src *tsSource, name, kind string, delta bool, prev float64, sample func() float64) {
	if t.nSeries >= t.maxSer {
		t.dropped++
		return
	}
	t.nSeries++
	src.series = append(src.series, &tsSeries{
		name:      name,
		kind:      kind,
		sample:    sample,
		delta:     delta,
		prev:      prev,
		firstTick: t.tick,
		vals:      make([]float64, t.hist),
	})
}

// bindRegistry binds every registry entry that appeared since the last
// tick. Closures are captured under r.mu, so a GaugeFunc re-registration
// racing this bind is ordered; the captured func is the one in effect at
// bind time (re-registrations install equivalent closures).
func (t *TSDB) bindRegistry(src *tsSource, r *Registry) {
	label := r.scopeLabel
	r.mu.Lock()
	defer r.mu.Unlock()
	for ; src.bound < len(r.entries); src.bound++ {
		e := r.entries[src.bound]
		name := withLabel(e.name, label)
		switch e.kind {
		case kindCounter:
			c := e.c
			t.addSeries(src, name, "counter", true, float64(c.Value()),
				func() float64 { return float64(c.Value()) })
		case kindGauge:
			g := e.g
			t.addSeries(src, name, "gauge", false, 0, g.Value)
		case kindFunc:
			t.addSeries(src, name, "gauge", false, 0, e.fn)
		case kindHistogram:
			h := e.h
			for _, hq := range histQuantiles {
				q := hq.q
				qname := withLabel(e.name+`_quantile{q="`+hq.label+`"}`, label)
				t.addSeries(src, qname, "quantile", false, 0,
					func() float64 { return h.Quantile(q) })
				if hq.label == "0.5" && len(src.series) > 0 {
					src.series[len(src.series)-1].hist = h
				}
			}
		}
	}
}

// bindScopeStats binds the synthetic live-stat series for one scope: the
// per-iteration snapshot the solver publishes lock-free, which has no
// registry entry of its own.
func (t *TSDB) bindScopeStats(src *tsSource, s *Scope) {
	live := s.Live()
	label := s.reg.scopeLabel
	add := func(name string, f func() float64) {
		t.addSeries(src, withLabel(name, label), "gauge", false, 0, f)
	}
	add("solve_iteration", func() float64 { return float64(live.Iter()) })
	add("solve_frontier", func() float64 { return float64(live.Frontier()) })
	add("solve_far_len", func() float64 { return float64(live.FarLen()) })
	add("solve_x2", func() float64 { return float64(live.X2()) })
	add("solve_delta", live.Delta)
	add("solve_set_point", func() float64 { return float64(live.SetPoint()) })
	add("solve_sim_seconds", func() float64 { return float64(live.SimNs()) / 1e9 })
}

// SeriesQuery selects what WriteJSON renders. The zero value means the
// full retained history of every series at full resolution.
type SeriesQuery struct {
	Window    time.Duration // 0 = everything retained
	MaxPoints int           // per series after downsampling; 0 = no limit
	Match     string        // substring filter on the series name; "" = all
}

type seriesJSON struct {
	Name      string       `json:"name"`
	Kind      string       `json:"kind"`
	Points    [][2]float64 `json:"points"`              // [unix_ms, value]
	Exemplars []Exemplar   `json:"exemplars,omitempty"` // current span links, p50 series only
}

type tsdbJSON struct {
	NowMs    int64        `json:"now_ms"` // host time of the latest tick
	PeriodMs int64        `json:"period_ms"`
	Samples  int64        `json:"samples"` // completed ticks
	Dropped  int64        `json:"dropped_series"`
	Series   []seriesJSON `json:"series"`
}

// WriteJSON renders the selected window as JSON: per series, [time_ms,
// value] pairs, bucket-averaged down to q.MaxPoints when the window holds
// more (a bucket reports its last timestamp and mean value, keeping
// counter-delta series in per-tick-rate units). Series are sorted by name
// so output is deterministic. The render path may allocate; it is a query,
// not the sampler.
func (t *TSDB) WriteJSON(w io.Writer, q SeriesQuery) error {
	if t == nil {
		_, err := io.WriteString(w, "{}\n")
		return err
	}
	t.mu.Lock()
	out := tsdbJSON{PeriodMs: t.period.Milliseconds(), Samples: int64(t.tick), Dropped: t.dropped}
	if t.tick > 0 {
		out.NowMs = t.times[int((t.tick-1)%uint64(t.hist))]
	}
	cutoff := int64(0)
	if q.Window > 0 {
		cutoff = out.NowMs - q.Window.Milliseconds()
	}
	all := make([]*tsSeries, 0, t.nSeries)
	for _, src := range t.sources {
		all = append(all, src.series...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].name < all[j].name })
	for _, sr := range all {
		if q.Match != "" && !strings.Contains(sr.name, q.Match) {
			continue
		}
		retained := sr.n
		if retained > uint64(t.hist) {
			retained = uint64(t.hist)
		}
		pts := make([][2]float64, 0, retained)
		for j := uint64(0); j < retained; j++ {
			// Sample j of the retained window is global tick g; a live
			// series samples every tick, so g indexes the shared time ring.
			g := t.tick - retained + j
			ms := t.times[int(g%uint64(t.hist))]
			if ms < cutoff {
				continue
			}
			v := sr.vals[int((sr.n-retained+j)%uint64(len(sr.vals)))]
			pts = append(pts, [2]float64{float64(ms), v})
		}
		sj := seriesJSON{Name: sr.name, Kind: sr.kind, Points: downsample(pts, q.MaxPoints)}
		if sr.hist != nil {
			sj.Exemplars = sr.hist.Exemplars(nil)
		}
		out.Series = append(out.Series, sj)
	}
	t.mu.Unlock()
	enc := json.NewEncoder(w)
	return enc.Encode(out)
}

// downsample bucket-averages pts down to at most maxPoints (0 = no
// limit): each bucket keeps its last timestamp and the mean of its
// values, so rate semantics survive and the final point stays current.
func downsample(pts [][2]float64, maxPoints int) [][2]float64 {
	if maxPoints <= 0 || len(pts) <= maxPoints {
		return pts
	}
	k := (len(pts) + maxPoints - 1) / maxPoints
	out := pts[:0]
	for i := 0; i < len(pts); i += k {
		end := i + k
		if end > len(pts) {
			end = len(pts)
		}
		var sum float64
		for _, p := range pts[i:end] {
			sum += p[1]
		}
		out = append(out, [2]float64{pts[end-1][0], sum / float64(end-i)})
	}
	return out
}
