package obs

import (
	"sync"
	"sync/atomic"
	"time"
)

// Event is one line of the live telemetry stream served at /events
// (NDJSON). One struct covers every event type; unused fields are omitted
// from the JSON, so consumers switch on Type:
//
//	hello        stream opened (ActiveSolves)
//	solve-start  a scope began solving (Solve)
//	heartbeat    periodic per-solve snapshot (Iter, Frontier, FarLen, X2,
//	             Delta, SetPoint, EnergyJ, SimMs, Strategy)
//	solve-end    a scope closed (Solve, Iter, EnergyJ)
//	finding      an online flight detector fired (Solve, Kind, Iter, Detail)
type Event struct {
	T            string  `json:"t"` // host wall clock, RFC3339Nano
	Type         string  `json:"type"`
	Solve        string  `json:"solve,omitempty"`
	Iter         int64   `json:"iter,omitempty"`
	Frontier     int64   `json:"frontier,omitempty"`
	FarLen       int64   `json:"far_len,omitempty"`
	X2           int64   `json:"x2,omitempty"`
	Delta        float64 `json:"delta,omitempty"`
	SetPoint     int64   `json:"set_point,omitempty"`
	EnergyJ      float64 `json:"energy_j,omitempty"`
	SimMs        float64 `json:"sim_ms,omitempty"`
	Strategy     string  `json:"strategy,omitempty"`
	Kind         string  `json:"kind,omitempty"`
	Detail       string  `json:"detail,omitempty"`
	ActiveSolves int     `json:"active_solves,omitempty"`
}

// stamp fills the event timestamp if the producer left it empty.
func (ev *Event) stamp() {
	if ev.T == "" {
		ev.T = time.Now().Format(time.RFC3339Nano)
	}
}

// Hub fans events out to any number of stream subscribers. Publish never
// blocks: a subscriber that stops draining loses events rather than
// stalling the solver (the stream is telemetry, not a log of record — the
// flight recorder is the lossless channel). A nil *Hub drops everything.
type Hub struct {
	mu   sync.Mutex
	subs map[chan Event]struct{}

	// Finding bookkeeping: every "finding" event that passes through the hub
	// (whatever its producer) bumps these, so /healthz can report the last
	// anomaly without subscribing.
	findings    atomic.Int64
	lastFinding atomic.Int64 // host unix ns of the most recent finding, 0 = never

	// dropped counts deliveries skipped because a subscriber's buffer was
	// full — one per (event, slow subscriber) pair, so a single stalled
	// stream shows up even while other subscribers keep up. Exposed as
	// obs_events_dropped_total and on /healthz.
	dropped atomic.Int64
}

func newHub() *Hub {
	return &Hub{subs: make(map[chan Event]struct{})}
}

// Subscribe registers a buffered subscriber channel and returns it with a
// cancel func that unregisters and drains it. On a nil hub the channel is
// nil (never delivers) and cancel is a no-op.
func (h *Hub) Subscribe(buf int) (<-chan Event, func()) {
	if h == nil {
		return nil, func() {}
	}
	if buf < 1 {
		buf = 64
	}
	ch := make(chan Event, buf)
	h.mu.Lock()
	h.subs[ch] = struct{}{}
	h.mu.Unlock()
	cancel := func() {
		h.mu.Lock()
		delete(h.subs, ch)
		h.mu.Unlock()
		// Drain anything published before the delete so an in-flight
		// Publish that already picked the channel cannot have blocked
		// (it never blocks anyway) and the channel is collectable.
		for {
			select {
			case <-ch:
			default:
				return
			}
		}
	}
	return ch, cancel
}

// Publish stamps and delivers ev to every subscriber that has buffer room.
func (h *Hub) Publish(ev Event) {
	if h == nil {
		return
	}
	ev.stamp()
	if ev.Type == "finding" {
		h.findings.Add(1)
		h.lastFinding.Store(time.Now().UnixNano())
	}
	h.mu.Lock()
	for ch := range h.subs {
		select {
		case ch <- ev:
		default: // subscriber is behind: drop, never block the solver
			h.dropped.Add(1)
		}
	}
	h.mu.Unlock()
}

// Dropped reports how many deliveries have been skipped on full
// subscriber buffers since the hub was created.
func (h *Hub) Dropped() int64 {
	if h == nil {
		return 0
	}
	return h.dropped.Load()
}

// Findings reports how many finding events have passed through the hub and
// when the most recent one did (zero time when none has).
func (h *Hub) Findings() (total int64, last time.Time) {
	if h == nil {
		return 0, time.Time{}
	}
	total = h.findings.Load()
	if ns := h.lastFinding.Load(); ns != 0 {
		last = time.Unix(0, ns)
	}
	return total, last
}
