package flight

import (
	"fmt"
	"sync"
)

// FindingKind classifies a detected controller pathology.
type FindingKind string

const (
	// FindingDeltaOscillation: the applied Δδ alternated sign for many
	// consecutive iterations — the controller is bouncing across the
	// set-point instead of settling (typically α mis-estimated, so each
	// correction overshoots).
	FindingDeltaOscillation FindingKind = "delta-oscillation"
	// FindingAlphaCollapse: the BISECT-MODEL estimate sat at its clamp
	// floor after bootstrap — Eq. 6's (P/d − X⁴)/α division is running on
	// the defensive clamp, not a learned density, so δ steps are maximal
	// and essentially open-loop.
	FindingAlphaCollapse FindingKind = "alpha-collapse"
	// FindingSetPointEscape: X² stayed outside the [P/band, P·band]
	// envelope for a sustained window after bootstrap — the controller is
	// not tracking (input can't supply P parallelism, or the model
	// diverged).
	FindingSetPointEscape FindingKind = "setpoint-escape"
)

// Finding is one structured detector result: a pathology kind, the
// iteration window it covers, and a human-readable summary.
type Finding struct {
	Kind   FindingKind `json:"kind"`
	FirstK int64       `json:"firstK"`
	LastK  int64       `json:"lastK"`
	Count  int         `json:"count"` // iterations involved
	Detail string      `json:"detail"`
}

// DetectOptions tunes the divergence detectors; the zero value selects the
// documented defaults.
type DetectOptions struct {
	// MinOscillation is the minimum number of consecutive Δδ sign
	// alternations to flag (default 6).
	MinOscillation int
	// AlphaFloor is the BISECT-MODEL clamp floor (default 1e-3, matching
	// Controller.Alpha); MinCollapse consecutive at-floor iterations after
	// bootstrap flag a collapse (default 8).
	AlphaFloor  float64
	MinCollapse int
	// EscapeBand is the multiplicative tracking envelope around P (default
	// 8: X² outside [P/8, 8P] counts as escaped); MinEscape consecutive
	// escaped iterations after bootstrap flag a finding (default 8).
	EscapeBand float64
	MinEscape  int
	// Bootstrap is the number of leading iterations exempt from the
	// alpha-collapse and escape detectors (default: the log header's
	// BootstrapIters, or 5).
	Bootstrap int
}

func (o DetectOptions) withDefaults(hdr Header) DetectOptions {
	if o.MinOscillation <= 0 {
		o.MinOscillation = 6
	}
	if o.AlphaFloor <= 0 {
		o.AlphaFloor = 1e-3
	}
	if o.MinCollapse <= 0 {
		o.MinCollapse = 8
	}
	if o.EscapeBand <= 1 {
		o.EscapeBand = 8
	}
	if o.MinEscape <= 0 {
		o.MinEscape = 8
	}
	if o.Bootstrap <= 0 {
		o.Bootstrap = hdr.BootstrapIters
		if o.Bootstrap <= 0 {
			o.Bootstrap = 5
		}
	}
	return o
}

// The three detectors share one rule shape: a finding is a maximal run of
// consecutive records that each extend the run, reported once the run is
// long enough. detector is the single owner of that rule. It advances all
// three runs one record at a time; OnlineDetector fires a finding the
// moment a run first reaches its threshold, and Detect folds the same
// machine over a whole log and reports every run that closed long enough.

// Detector indices into detector.runs and detectKinds.
const (
	detOscillation = iota
	detCollapse
	detEscape
	numDetectors
)

var detectKinds = [numDetectors]FindingKind{
	FindingDeltaOscillation, FindingAlphaCollapse, FindingSetPointEscape,
}

// detectRun is one run of consecutive matching records: the K of its first
// and latest record and how many records it holds (0: no open run).
type detectRun struct {
	firstK, lastK int64
	n             int
}

// detector is the run-tracking state machine behind Detect and
// OnlineDetector. The zero value with opt set is a fresh detector.
type detector struct {
	opt      DetectOptions
	runs     [numDetectors]detectRun
	prevSign int // sign of the previous record's applied Δδ
}

// minRun is how many records a run of detector i needs to be reported.
// An oscillation run of n records holds n−1 sign alternations.
func (d *detector) minRun(i int) int {
	switch i {
	case detOscillation:
		return d.opt.MinOscillation + 1
	case detCollapse:
		return d.opt.MinCollapse
	}
	return d.opt.MinEscape
}

// step advances every run by one record. closed holds each run that ended
// just before rec (n == 0 where none did); crossed marks each run that
// reached its minimum length at rec, which happens once per run.
//
// A record extends the oscillation run when its Δδ is nonzero and opposite
// in sign to the previous record's, and starts a new run when it is
// nonzero otherwise: a zero step ends the run (holding is not
// oscillating) and a same-sign step restarts the window at this record.
// After the bootstrap window, a record extends or starts the collapse run
// when α sits at its clamp floor after the BISECT-MODEL has learned, and
// the escape run when X² lies outside the [P/band, P·band] envelope.
func (d *detector) step(rec *Record) (closed [numDetectors]detectRun, crossed [numDetectors]bool) {
	opt := &d.opt
	s := sign(rec.AppliedDelta)
	afterBootstrap := rec.K >= int64(opt.Bootstrap)
	escaped := false
	if rec.SetPoint > 0 {
		x2 := float64(rec.X2)
		escaped = x2 > rec.SetPoint*opt.EscapeBand || x2 < rec.SetPoint/opt.EscapeBand
	}
	match := [numDetectors]bool{
		s != 0,
		afterBootstrap && rec.Bisect.Steps > 0 && rec.Alpha <= opt.AlphaFloor,
		afterBootstrap && escaped,
	}
	extend := [numDetectors]bool{
		s*d.prevSign < 0, // opposite signs
		match[detCollapse],
		match[detEscape],
	}
	d.prevSign = s
	for i := range d.runs {
		r := &d.runs[i]
		if extend[i] && r.n > 0 {
			r.n++
			r.lastK = rec.K
		} else {
			closed[i] = *r
			*r = detectRun{}
			if match[i] {
				*r = detectRun{firstK: rec.K, lastK: rec.K, n: 1}
			}
		}
		crossed[i] = r.n == d.minRun(i)
	}
	return closed, crossed
}

// finding renders run r of detector i as a structured finding.
func (d *detector) finding(i int, r detectRun) Finding {
	f := Finding{Kind: detectKinds[i], FirstK: r.firstK, LastK: r.lastK, Count: r.n}
	switch i {
	case detOscillation:
		f.Detail = fmt.Sprintf("Δδ sign alternated %d times over iterations %d–%d",
			r.n-1, r.firstK, r.lastK)
	case detCollapse:
		f.Detail = fmt.Sprintf("α sat at its %.0e clamp floor for %d iterations (%d–%d); δ steps are open-loop",
			d.opt.AlphaFloor, r.n, r.firstK, r.lastK)
	default:
		f.Detail = fmt.Sprintf("X² stayed outside the [P/%.0f, %.0f·P] band for %d iterations (%d–%d)",
			d.opt.EscapeBand, d.opt.EscapeBand, r.n, r.firstK, r.lastK)
	}
	return f
}

// Detect scans a flight log for controller pathologies and returns them as
// structured findings: every delta-oscillation run, then every alpha
// collapse, then every set-point escape, each kind ordered by first
// iteration. An empty slice means the detectors saw a healthy trajectory.
func Detect(l *Log, opt DetectOptions) []Finding {
	d := detector{opt: opt.withDefaults(l.Header)}
	var byKind [numDetectors][]Finding
	report := func(i int, r detectRun) {
		if r.n >= d.minRun(i) {
			byKind[i] = append(byKind[i], d.finding(i, r))
		}
	}
	for k := range l.Records {
		closed, _ := d.step(&l.Records[k])
		for i, r := range closed {
			report(i, r)
		}
	}
	for i, r := range d.runs {
		report(i, r)
	}
	var out []Finding
	for _, fs := range byKind {
		out = append(out, fs...)
	}
	return out
}

// OnlineDetector runs the Detect state machine incrementally, one Record
// at a time, so a live solve can surface delta oscillation, alpha
// collapse, and set-point escape *while they are happening* (the obs
// /events stream forwards them as "finding" events). It fires as soon as a
// run first reaches its detection threshold — when an operator can still
// act on it — rather than when the run ends, and fires once per run: the
// finding's FirstK is the run's, its LastK the iteration of the crossing.
// Observing a healthy trajectory allocates nothing; a firing allocates
// only its Finding.
//
// A nil *OnlineDetector is a no-op. Attach one to a Recorder with
// SetOnline; the recorder resets it on SetHeader and feeds it every
// Append.
type OnlineDetector struct {
	mu   sync.Mutex
	base DetectOptions // as given; re-defaulted against each header
	d    detector
	emit func(Finding)
}

// NewOnlineDetector returns a detector with the given tuning (zero value
// selects the same defaults as Detect) that calls emit for each finding.
// emit must be safe to call from whatever goroutine drives the recorder.
func NewOnlineDetector(opt DetectOptions, emit func(Finding)) *OnlineDetector {
	return &OnlineDetector{base: opt, d: detector{opt: opt.withDefaults(Header{})}, emit: emit}
}

// Reset rearms the state machine for a new solve and re-derives the
// bootstrap window from the log header.
func (o *OnlineDetector) Reset(h Header) {
	if o == nil {
		return
	}
	o.mu.Lock()
	o.d = detector{opt: o.base.withDefaults(h)}
	o.mu.Unlock()
}

// Observe feeds one iteration record through all three detectors.
func (o *OnlineDetector) Observe(rec *Record) {
	if o == nil {
		return
	}
	var fired [numDetectors]Finding
	n := 0
	o.mu.Lock()
	_, crossed := o.d.step(rec)
	for i, c := range crossed {
		if c {
			fired[n] = o.d.finding(i, o.d.runs[i])
			n++
		}
	}
	o.mu.Unlock()

	if o.emit != nil {
		for _, f := range fired[:n] {
			o.emit(f)
		}
	}
}

func sign(x float64) int {
	switch {
	case x > 0:
		return 1
	case x < 0:
		return -1
	}
	return 0 // zero or NaN
}
