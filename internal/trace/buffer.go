package trace

import (
	"bytes"
	"context"
	"encoding/gob"
	"fmt"
	"unsafe"
)

// EventBuffer is an in-memory recording of a trace that can be replayed any
// number of times. It implements Sink, so it can capture a simulation's
// event stream directly, and it remembers the ReadStats of the reader that
// filled it (see ReadAll), so a degraded-mode read's skip accounting travels
// with the events it actually delivered.
//
// The point of the buffer is single-decode fan-out: one simulation or one
// pass over a stored trace fills the buffer, and any number of analyzers —
// possibly running concurrently — replay it without re-simulating or
// re-decoding chunks. Replay hands each sink a pointer to a private copy of
// the event, so concurrent replays never share mutable state; that copy is
// reused for the next event, so sinks must not retain the pointer across
// calls (the Sink contract the CPU tracer and trace.Reader share).
// Outside tests only perfbench's ladder still records into one; every
// analysis path streams.
type EventBuffer struct {
	events []Event
	stats  ReadStats
}

// Event implements Sink: it records a copy of the event.
func (b *EventBuffer) Event(e *Event) error {
	b.events = append(b.events, *e)
	return nil
}

// Events implements BatchSink: it records a copy of the whole batch with
// one bulk append.
func (b *EventBuffer) Events(batch []Event) error {
	b.events = append(b.events, batch...)
	return nil
}

// Len returns the number of recorded events.
func (b *EventBuffer) Len() int { return len(b.events) }

// Grow ensures capacity for at least n more events without another
// allocation. Callers that know the recording's length up front (a shard
// plan records per-shard event counts) use it to keep append from
// repeatedly copying a multi-hundred-MB backing array through growslice.
func (b *EventBuffer) Grow(n int) {
	if n <= cap(b.events)-len(b.events) {
		return
	}
	grown := make([]Event, len(b.events), len(b.events)+n)
	copy(grown, b.events)
	b.events = grown
}

// Bytes estimates the memory held by the recording: the capacity of the
// backing array times the event size. This is what a memory budget should
// meter — the buffer is the fan-out engine's dominant allocation.
func (b *EventBuffer) Bytes() int64 {
	return int64(cap(b.events)) * int64(unsafe.Sizeof(Event{}))
}

// Stats returns the skip accounting of the reader that filled the buffer
// (zero for a buffer filled directly from a simulation).
func (b *EventBuffer) Stats() ReadStats { return b.stats }

// SetStats attaches a reader's skip accounting to the buffer.
func (b *EventBuffer) SetStats(st ReadStats) { b.stats = st }

// Replay delivers every recorded event to sink, in recording order,
// stopping at the first sink error. It may be called concurrently from
// multiple goroutines, each with its own sink.
func (b *EventBuffer) Replay(sink Sink) error {
	return b.ReplayContext(context.Background(), sink)
}

// CtxCheckEvery is how many events pass between context checks in replay
// and read loops. Checking ctx.Err() per event would put an atomic load in
// the hot loop; once per 1024 events bounds cancellation latency to a
// microsecond-scale burst while costing one integer test per event.
const CtxCheckEvery = 1024

// ReplayContext is Replay under a context: cancellation or deadline expiry
// stops the replay within CtxCheckEvery events, returning an error wrapping
// ctx.Err().
func (b *EventBuffer) ReplayContext(ctx context.Context, sink Sink) error {
	done := ctx.Done()
	// Copy each event so a misbehaving sink mutating it cannot corrupt the
	// recording or race with other replays. The copy is one variable per
	// call: a per-iteration local escapes through the Sink interface and
	// costs an allocation per event.
	var e Event
	for i := range b.events {
		if done != nil && i%CtxCheckEvery == 0 {
			if err := ctx.Err(); err != nil {
				return fmt.Errorf("trace: replay canceled at event %d: %w", i, err)
			}
		}
		e = b.events[i]
		if err := sink.Event(&e); err != nil {
			return fmt.Errorf("trace: replay event %d: %w", i, err)
		}
	}
	return nil
}

// ReplayBatches delivers the recording to sink as slices of up to
// CtxCheckEvery events, checking ctx between batches — the zero-copy fast
// path of ReplayContext. The batches alias the recording itself, so the
// BatchSink contract (read-only, no retention) is what keeps concurrent
// replays safe; hand untrusted sinks to ReplayContext instead, or wrap
// them with AsBatch to restore the per-event copy.
func (b *EventBuffer) ReplayBatches(ctx context.Context, sink BatchSink) error {
	done := ctx.Done()
	for i := 0; i < len(b.events); i += CtxCheckEvery {
		if done != nil {
			if err := ctx.Err(); err != nil {
				return fmt.Errorf("trace: replay canceled at event %d: %w", i, err)
			}
		}
		end := i + CtxCheckEvery
		if end > len(b.events) {
			end = len(b.events)
		}
		if err := sink.Events(b.events[i:end]); err != nil {
			return fmt.Errorf("trace: replay batch at event %d: %w", i, err)
		}
	}
	return nil
}

// eventBufferState mirrors EventBuffer with exported fields for gob.
// Without it, gob-encoding a buffer fails outright (no exported fields),
// which is how shard-result files would silently lose a degraded read's
// skip accounting.
type eventBufferState struct {
	Events []Event
	Stats  ReadStats
}

// GobEncode persists the recording and its ReadStats, so a buffer embedded
// in a shard-result file round-trips events and skip accounting exactly.
func (b *EventBuffer) GobEncode() ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(eventBufferState{Events: b.events, Stats: b.stats}); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// GobDecode rebuilds the recording persisted by GobEncode.
func (b *EventBuffer) GobDecode(p []byte) error {
	var st eventBufferState
	if err := gob.NewDecoder(bytes.NewReader(p)).Decode(&st); err != nil {
		return err
	}
	b.events, b.stats = st.Events, st.Stats
	return nil
}

// ReadAll drains a Reader into a fresh EventBuffer and captures the reader's
// final ReadStats. With a degraded-mode reader over a damaged trace, the
// buffer therefore holds exactly the surviving events, and Stats reports
// what was lost.
func ReadAll(r *Reader) (*EventBuffer, error) {
	b := &EventBuffer{}
	if err := r.ForEachBatch(b.Events); err != nil {
		return nil, err
	}
	b.stats = r.Stats()
	return b, nil
}
