package daemon

import (
	"sync"

	"gullible/internal/telemetry"
)

// hubReplay bounds the per-job replay ring: a subscriber arriving mid-job
// gets the most recent hubReplay events plus everything live from then on.
const hubReplay = 512

// subBuffer is the per-subscriber channel depth. A consumer that falls this
// far behind loses events (visible as seq gaps) rather than stalling the
// crawl worker publishing them.
const subBuffer = 256

// JobEvent is one streamed observation of a running job, serialised onto the
// GET /v1/jobs/{id}/events SSE feed. Seq is a per-job monotone sequence
// number (the SSE event id): gaps mean the consumer fell behind the
// subscriber buffer or connected after the replay ring had wrapped.
type JobEvent struct {
	Seq  int64  `json:"seq"`
	Type string `json:"type"` // "state" or "progress"

	// state events
	State  JobState `json:"state,omitempty"`
	Digest string   `json:"digest,omitempty"`
	Error  string   `json:"error,omitempty"`

	// progress events
	Done  int `json:"done,omitempty"`
	Total int `json:"total,omitempty"`
}

// subscriber is one attached event consumer.
type subscriber struct {
	ch chan JobEvent
}

// eventHub fans one job's event stream out to any number of SSE subscribers.
// Publishing is non-blocking: a full subscriber channel drops the event for
// that subscriber only (counted on drops), so a stalled client can never
// stall the executor publishing from the crawl's hot path.
type eventHub struct {
	mu     sync.Mutex
	seq    int64
	ring   []JobEvent // last hubReplay events, oldest first
	subs   map[*subscriber]struct{}
	closed bool
	drops  *telemetry.Counter
}

func newEventHub(drops *telemetry.Counter) *eventHub {
	return &eventHub{subs: map[*subscriber]struct{}{}, drops: drops}
}

// publish stamps the event with the next sequence number, retains it in the
// replay ring and fans it out. Publishing after close is a no-op.
func (h *eventHub) publish(ev JobEvent) {
	if h == nil {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return
	}
	h.seq++
	ev.Seq = h.seq
	h.ring = append(h.ring, ev)
	if len(h.ring) > hubReplay {
		h.ring = h.ring[len(h.ring)-hubReplay:]
	}
	for s := range h.subs {
		select {
		case s.ch <- ev:
		default:
			h.drops.Inc()
		}
	}
}

// subscribe attaches a consumer. Events already published with Seq > after
// (and still in the replay ring) are returned for immediate delivery; later
// events arrive on the channel. The channel is closed when the hub closes —
// subscribers of an already-closed hub get the replay plus a closed channel.
// cancel detaches (idempotent, safe after close).
func (h *eventHub) subscribe(after int64) (replay []JobEvent, ch <-chan JobEvent, cancel func()) {
	h.mu.Lock()
	defer h.mu.Unlock()
	for _, ev := range h.ring {
		if ev.Seq > after {
			replay = append(replay, ev)
		}
	}
	s := &subscriber{ch: make(chan JobEvent, subBuffer)}
	if h.closed {
		close(s.ch)
	} else {
		h.subs[s] = struct{}{}
	}
	cancel = func() {
		h.mu.Lock()
		defer h.mu.Unlock()
		if _, ok := h.subs[s]; ok {
			delete(h.subs, s)
			close(s.ch)
		}
	}
	return replay, s.ch, cancel
}

// close ends the stream: every subscriber channel is closed and later
// publishes are dropped. Called when the job reaches a terminal state.
func (h *eventHub) close() {
	if h == nil {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return
	}
	h.closed = true
	for s := range h.subs {
		close(s.ch)
		delete(h.subs, s)
	}
}

// stateEvent renders a job status as a stream event.
func stateEvent(st JobStatus) JobEvent {
	return JobEvent{Type: "state", State: st.State, Digest: st.Digest, Error: st.Error}
}
