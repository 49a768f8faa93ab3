package trace

import "io"

// Batched event delivery. The per-event Sink contract costs one interface
// call — and, for replay, one defensive copy — per dynamic instruction,
// which at hundreds of millions of events is most of the delivery bill.
// BatchSink amortizes both: producers hand consumers slices of decoded
// events, CtxCheckEvery at a time, and the cancellation/budget guards that
// used to be per-event integer tests hoist to one check per batch.
//
// The batch contract is stricter than Sink's: as with a Sink's event, the
// slice and the events in it are only valid for the duration of the Events
// call, and in addition the sink must not mutate them — batches may alias
// the producer's decode buffer, an EventBuffer recording shared by
// concurrent replays, or an mmap-ed region. Trusted internal consumers
// (the analyzer, EventBuffer) honour this; arbitrary Sinks get the old
// copying semantics through AsBatch.

// BatchSink consumes a stream of events delivered in slices.
type BatchSink interface {
	// Events consumes one batch. The slice is read-only and invalid after
	// the call returns.
	Events(batch []Event) error
}

// BatchFunc adapts a function to the BatchSink interface.
type BatchFunc func(batch []Event) error

// Events implements BatchSink.
func (f BatchFunc) Events(batch []Event) error { return f(batch) }

// AsBatch returns a BatchSink delivering to s: s itself when it already
// implements BatchSink, otherwise an adapter that feeds s one event at a
// time with the Sink contract's private copy per event.
func AsBatch(s Sink) BatchSink {
	if bs, ok := s.(BatchSink); ok {
		return bs
	}
	return sinkAdapter{s}
}

// sinkAdapter bridges a batch producer to a legacy per-event Sink.
type sinkAdapter struct{ s Sink }

// Events implements BatchSink by replaying the batch event by event. Each
// event is copied, into one variable per call, so a sink that mutates its
// argument cannot corrupt the shared batch.
func (a sinkAdapter) Events(batch []Event) error {
	var e Event
	for i := range batch {
		e = batch[i]
		if err := a.s.Event(&e); err != nil {
			return err
		}
	}
	return nil
}

// DefaultBatchEvents is the conventional batch size for read and replay
// loops: it matches CtxCheckEvery, so hoisting the per-event guards to
// batch granularity preserves their exact cadence.
const DefaultBatchEvents = CtxCheckEvery

// ReadBatch decodes up to len(dst) events into dst, returning how many
// were decoded and the error, if any, that stopped the read. Events
// dst[:n] are always valid; err is io.EOF at the clean end of the trace
// and may accompany n > 0. A degraded-mode reader accounts skips in Stats
// exactly as per-event Next does — ReadBatch is a loop around the same
// decode state machine, not a second implementation.
func (r *Reader) ReadBatch(dst []Event) (n int, err error) {
	for n < len(dst) {
		if err := r.Next(&dst[n]); err != nil {
			return n, err
		}
		n++
	}
	return n, nil
}

// ForEachBatch reads the remaining trace in batches of DefaultBatchEvents,
// invoking fn for each. It stops early if fn returns an error, and returns
// nil at a clean end of trace. The batch slice passed to fn follows the
// BatchSink contract: read-only, invalid after fn returns.
func (r *Reader) ForEachBatch(fn func(batch []Event) error) error {
	buf := make([]Event, DefaultBatchEvents)
	for {
		n, err := r.ReadBatch(buf)
		if n > 0 {
			if ferr := fn(buf[:n]); ferr != nil {
				return ferr
			}
		}
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
	}
}
