package flight

import (
	"fmt"
	"math"
	"reflect"
	"testing"
)

// Reference detectors: one direct offline scanner per pathology, the
// specification the shared detector state machine is checked against.

func refDetect(l *Log, opt DetectOptions) []Finding {
	opt = opt.withDefaults(l.Header)
	var out []Finding
	out = append(out, refOscillation(l, opt)...)
	out = append(out, refRun(l, opt.MinCollapse, opt.Bootstrap,
		func(r *Record) bool { return r.Bisect.Steps > 0 && r.Alpha <= opt.AlphaFloor },
		func(first, last int64, n int) Finding {
			return Finding{
				Kind: FindingAlphaCollapse, FirstK: first, LastK: last, Count: n,
				Detail: fmt.Sprintf("α sat at its %.0e clamp floor for %d iterations (%d–%d); δ steps are open-loop",
					opt.AlphaFloor, n, first, last),
			}
		})...)
	out = append(out, refRun(l, opt.MinEscape, opt.Bootstrap,
		func(r *Record) bool {
			if r.SetPoint <= 0 {
				return false
			}
			x2 := float64(r.X2)
			return x2 > r.SetPoint*opt.EscapeBand || x2 < r.SetPoint/opt.EscapeBand
		},
		func(first, last int64, n int) Finding {
			return Finding{
				Kind: FindingSetPointEscape, FirstK: first, LastK: last, Count: n,
				Detail: fmt.Sprintf("X² stayed outside the [P/%.0f, %.0f·P] band for %d iterations (%d–%d)",
					opt.EscapeBand, opt.EscapeBand, n, first, last),
			}
		})...)
	return out
}

// refOscillation finds maximal runs of consecutive sign alternations of
// the applied Δδ. Zero steps end a run (holding is not oscillating).
func refOscillation(l *Log, opt DetectOptions) []Finding {
	var out []Finding
	runStart, flips, prevSign := -1, 0, 0
	flush := func(endIdx int) {
		if flips >= opt.MinOscillation {
			first, last := l.Records[runStart].K, l.Records[endIdx].K
			out = append(out, Finding{
				Kind: FindingDeltaOscillation, FirstK: first, LastK: last,
				Count: endIdx - runStart + 1,
				Detail: fmt.Sprintf("Δδ sign alternated %d times over iterations %d–%d",
					flips, first, last),
			})
		}
		runStart, flips, prevSign = -1, 0, 0
	}
	for i := range l.Records {
		s := sign(l.Records[i].AppliedDelta)
		switch {
		case s == 0 || prevSign == 0:
			if runStart >= 0 {
				flush(i - 1)
			}
			if s != 0 {
				runStart = i
			}
		case s != prevSign:
			flips++
		default: // same sign: monotone motion, restart the window here
			flush(i - 1)
			runStart = i
		}
		prevSign = s
	}
	if runStart >= 0 {
		flush(len(l.Records) - 1)
	}
	return out
}

// refRun reports maximal runs of >= minRun consecutive records matching
// cond, skipping the first bootstrap iterations.
func refRun(l *Log, minRun, bootstrap int, cond func(*Record) bool, mk func(first, last int64, n int) Finding) []Finding {
	var out []Finding
	runStart := -1
	flush := func(endIdx int) {
		if runStart >= 0 && endIdx-runStart+1 >= minRun {
			out = append(out, mk(l.Records[runStart].K, l.Records[endIdx].K, endIdx-runStart+1))
		}
		runStart = -1
	}
	for i := range l.Records {
		if l.Records[i].K < int64(bootstrap) || !cond(&l.Records[i]) {
			flush(i - 1)
			continue
		}
		if runStart < 0 {
			runStart = i
		}
	}
	flush(len(l.Records) - 1)
	return out
}

// Record stream encoding for the fuzz target. Five header bytes select
// MinOscillation, MinCollapse, MinEscape and Bootstrap (each mod 8, where 0
// keeps the default) and the first iteration index; every further byte is
// one record:
//
//	bits 0–1  applied Δδ: 0 zero, 1 positive, 2 negative, 3 NaN
//	bit  2    α at the clamp floor
//	bit  3    the BISECT-MODEL has learned (Bisect.Steps > 0)
//	bits 4–5  X²: 0 at P, 1 far above the band, 2 far below, 3 on the edge
//	bit  6    no set-point (P = 0)
//	bit  7    doubles the Δδ magnitude
const (
	dZero, dPos, dNeg, dNaN = 0, 1, 2, 3
	bFloor                  = 1 << 2
	bLearned                = 1 << 3
	bAbove, bBelow, bEdge   = 1 << 4, 2 << 4, 3 << 4
	bNoP                    = 1 << 6
	bBig                    = 1 << 7
)

func decodeStream(data []byte) (*Log, DetectOptions, bool) {
	if len(data) < 5 {
		return nil, DetectOptions{}, false
	}
	opt := DetectOptions{
		MinOscillation: int(data[0] % 8),
		MinCollapse:    int(data[1] % 8),
		MinEscape:      int(data[2] % 8),
		Bootstrap:      int(data[3] % 8),
	}
	l := &Log{Header: Header{Schema: Schema, Version: SchemaVersion, Algorithm: "selftuning",
		SetPoint: 500, BootstrapIters: 5}}
	k0 := int64(data[4])
	for i, b := range data[5:] {
		rec := Record{K: k0 + int64(i), SetPoint: 500, X2: 500, Alpha: 0.5, D: 4}
		mag := 3.0
		if b&bBig != 0 {
			mag = 6
		}
		switch b & 3 {
		case dPos:
			rec.AppliedDelta = mag
		case dNeg:
			rec.AppliedDelta = -mag
		case dNaN:
			rec.AppliedDelta = math.NaN()
		}
		if b&bFloor != 0 {
			rec.Alpha = 1e-3
		}
		if b&bLearned != 0 {
			rec.Bisect.Steps = 7
		}
		switch b & (3 << 4) {
		case bAbove:
			rec.X2 = 500 * 100
		case bBelow:
			rec.X2 = 1
		case bEdge:
			rec.X2 = 500 * 8 // on the band edge: not escaped
		}
		if b&bNoP != 0 {
			rec.SetPoint = 0
		}
		l.Records = append(l.Records, rec)
	}
	return l, opt, true
}

// stream builds a fuzz input: the five header bytes, then each record
// byte repeated the given number of times.
func stream(hdr [5]byte, runs ...[2]int) []byte {
	out := hdr[:]
	for _, r := range runs {
		for i := 0; i < r[1]; i++ {
			out = append(out, byte(r[0]))
		}
	}
	return out
}

// alternating returns n records whose Δδ alternates sign, starting positive.
func alternating(n int, extra byte) [][2]int {
	var out [][2]int
	for i := 0; i < n; i++ {
		d := dPos
		if i%2 == 1 {
			d = dNeg
		}
		out = append(out, [2]int{d | int(extra), 1})
	}
	return out
}

// FuzzDetect checks the shared run-tracking state machine against the
// reference scanners on random record streams: Detect must equal the
// reference exactly, and the online detector must fire once per reference
// run with the run's FirstK and a LastK no later than the run's end.
func FuzzDetect(f *testing.F) {
	osc := func(hdr [5]byte, n int, tail ...[2]int) []byte {
		return stream(hdr, append(append([][2]int{{dZero, 2}}, alternating(n, 0)...), tail...)...)
	}
	// Oscillation runs with exactly MinOscillation flips (reported) and one
	// flip short (not), at the default and at a small threshold.
	f.Add(osc([5]byte{}, 7, [2]int{dZero, 1}))
	f.Add(osc([5]byte{}, 6, [2]int{dZero, 1}))
	f.Add(osc([5]byte{3}, 4))
	f.Add(osc([5]byte{3}, 3, [2]int{dPos, 2}))
	// Zero and NaN steps end an oscillation; a same-sign step restarts it.
	f.Add(osc([5]byte{2}, 4, [2]int{dNaN, 1}, [2]int{dNeg, 1}, [2]int{dPos, 1}, [2]int{dNeg, 1}))
	f.Add(osc([5]byte{2}, 3, [2]int{dNeg, 1}, [2]int{dPos | bBig, 1}, [2]int{dNeg, 1}, [2]int{dZero, 1}))
	// Collapse and escape runs of exactly MinCollapse/MinEscape records,
	// and one short, after the default bootstrap.
	f.Add(stream([5]byte{}, [2]int{dZero, 5}, [2]int{bFloor | bLearned, 8}, [2]int{dZero, 1}))
	f.Add(stream([5]byte{}, [2]int{dZero, 5}, [2]int{bFloor | bLearned, 7}, [2]int{bFloor, 3}))
	f.Add(stream([5]byte{0, 4, 3}, [2]int{dZero, 5}, [2]int{bAbove, 3}, [2]int{bEdge, 1}, [2]int{bBelow, 3}))
	f.Add(stream([5]byte{0, 4, 3}, [2]int{dZero, 5}, [2]int{bFloor | bLearned, 4}, [2]int{bAbove, 2}))
	// Runs straddling the bootstrap boundary: only records at K >=
	// Bootstrap count, also when the log starts mid-run.
	f.Add(stream([5]byte{0, 3, 3, 4}, [2]int{bFloor | bLearned | bAbove, 6}, [2]int{dZero, 1}))
	f.Add(stream([5]byte{0, 3, 3, 4, 2}, [2]int{bFloor | bLearned | bAbove, 5}))
	f.Add(stream([5]byte{0, 3, 3, 4, 3}, [2]int{bFloor | bLearned | bBelow, 3}))
	// No set-point: X² far off P never escapes.
	f.Add(stream([5]byte{0, 0, 2}, [2]int{dZero, 5}, [2]int{bAbove | bNoP, 10}, [2]int{bAbove, 2}))
	// Every detector firing at once, overlapping.
	f.Add(stream([5]byte{2, 2, 2, 1}, [2]int{dPos | bFloor | bLearned | bAbove, 1},
		[2]int{dNeg | bFloor | bLearned | bAbove, 1}, [2]int{dPos | bFloor | bLearned | bAbove, 1},
		[2]int{dNaN | bFloor | bLearned | bAbove, 1}))

	f.Fuzz(func(t *testing.T, data []byte) {
		l, opt, ok := decodeStream(data)
		if !ok {
			return
		}
		want := refDetect(l, opt)
		if got := Detect(l, opt); !reflect.DeepEqual(got, want) {
			t.Fatalf("Detect = %+v\nreference = %+v", got, want)
		}

		var online []Finding
		d := NewOnlineDetector(opt, func(f Finding) { online = append(online, f) })
		d.Reset(l.Header)
		for i := range l.Records {
			d.Observe(&l.Records[i])
		}
		byKind := func(fs []Finding) map[FindingKind][]Finding {
			m := map[FindingKind][]Finding{}
			for _, f := range fs {
				m[f.Kind] = append(m[f.Kind], f)
			}
			return m
		}
		on, ref := byKind(online), byKind(want)
		for _, kind := range detectKinds {
			if len(on[kind]) != len(ref[kind]) {
				t.Fatalf("%s: online fired %d times, reference has %d runs\nonline %+v\nreference %+v",
					kind, len(on[kind]), len(ref[kind]), on[kind], ref[kind])
			}
			for i, r := range ref[kind] {
				o := on[kind][i]
				if o.FirstK != r.FirstK || o.LastK < o.FirstK || o.LastK > r.LastK {
					t.Fatalf("%s run %d: online [%d,%d], reference [%d,%d]",
						kind, i, o.FirstK, o.LastK, r.FirstK, r.LastK)
				}
			}
		}
	})
}
