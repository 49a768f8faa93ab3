package trace

import (
	"context"
	"sync/atomic"
	"unsafe"
)

// Ring is a bounded, single-producer, multi-consumer broadcast buffer of
// event batches: the constant-memory alternative to recording a whole
// trace into an EventBuffer before fanning it out. The producer (a CPU
// simulation or a trace reader) appends events while every consumer (for
// example one analyzer per configuration) replays the identical sequence
// concurrently; when the slowest consumer falls Batches batches behind,
// the producer blocks until it catches up. Memory held by the ring is
// therefore a function of configuration — Batches × BatchEvents ×
// sizeof(Event) — and never of trace length.
//
// A Ring is a SegRing of event batches, so the locking, backpressure,
// cancellation, drain and producer-error protocol is SegRing's. The
// producer claims a slot, fills the batch it holds in place (a batch every
// consumer has released) and publishes it once BatchEvents events have
// accumulated; the slices handed to consumers follow the BatchSink
// contract — read-only, invalid once the consumer asks for the next batch.
//
// A Ring is bound to a context at construction: a cancellation unblocks
// both a producer waiting for ring space and consumers waiting for data,
// each returning an error wrapping ctx.Err().
// Outside tests only perfbench's ladder (its trace.ring stage) still uses
// a Ring; the multi-config engine broadcasts record segments over SegRing.
type Ring struct {
	seg         *SegRing[[]Event]
	batchEvents int

	// cur is the claimed slot's batch while the producer fills it, nil
	// between batches; only the producer goroutine touches it.
	cur   []Event
	count atomic.Int64 // events accepted so far
}

// Ring sizing defaults and floors. 64 batches of 1024 events is ~1.5 MB of
// Event storage — deep enough that transient consumer skew (a GC pause, an
// analyzer's expensive stride) doesn't stall the producer, small enough to
// be irrelevant against any realistic memory budget.
const (
	// DefaultRingBatches is the ring capacity used when RingOptions leaves
	// Batches zero.
	DefaultRingBatches = 64
	// MinRingBatches is the smallest capacity a ring can run with and
	// still overlap production with consumption at all.
	MinRingBatches = 2
)

// RingOptions sizes a Ring. The zero value selects the defaults.
type RingOptions struct {
	// Batches is the ring capacity: how far (in batches) the producer may
	// run ahead of the slowest consumer. 0 selects DefaultRingBatches;
	// values below MinRingBatches are raised to it.
	Batches int
	// BatchEvents is the number of events per batch. 0 selects
	// DefaultBatchEvents, which matches the CtxCheckEvery guard stride.
	BatchEvents int
}

// RingFootprint estimates the bytes a ring of the given shape holds (its
// batch slots; bookkeeping is negligible). Zero parameters select the same
// defaults NewRing would.
func RingFootprint(batches, batchEvents int) int64 {
	if batches <= 0 {
		batches = DefaultRingBatches
	}
	if batchEvents <= 0 {
		batchEvents = DefaultBatchEvents
	}
	return int64(batches) * int64(batchEvents) * int64(unsafe.Sizeof(Event{}))
}

// NewRing returns a ring broadcasting to the given number of consumers,
// bound to ctx. Every consumer slot must be claimed with Consumer and
// either drained to EOF or Closed, or the producer will block forever
// waiting for it.
func NewRing(ctx context.Context, consumers int, o RingOptions) *Ring {
	batches := o.Batches
	if batches <= 0 {
		batches = DefaultRingBatches
	}
	be := o.BatchEvents
	if be <= 0 {
		be = DefaultBatchEvents
	}
	return &Ring{seg: NewSegRing[[]Event](ctx, consumers, max(batches, MinRingBatches)), batchEvents: be}
}

// Bytes reports the ring's fixed footprint — what a memory budget should
// meter for the bounded engine, replacing the EventBuffer's trace-length-
// proportional figure.
func (r *Ring) Bytes() int64 { return RingFootprint(r.seg.nslots, r.batchEvents) }

// Count returns the number of events accepted so far. It may be called
// from any goroutine.
func (r *Ring) Count() int64 { return r.count.Load() }

// Event implements Sink: it appends one event, publishing a batch every
// BatchEvents events and blocking under backpressure.
func (r *Ring) Event(e *Event) error { return r.Events([]Event{*e}) }

// Events implements BatchSink: a bulk append of the batch, split across
// ring slots as needed. The input follows the usual contract (read-only,
// not retained): events are copied into the ring's own slots.
func (r *Ring) Events(batch []Event) error {
	for len(batch) > 0 {
		if r.cur == nil {
			released, err := r.seg.claim()
			if err != nil {
				return err
			}
			if released == nil {
				// The ring is still filling: this slot's batch is new.
				released = make([]Event, 0, r.batchEvents)
			}
			r.cur = released[:0]
		}
		n := min(r.batchEvents-len(r.cur), len(batch))
		r.cur = append(r.cur, batch[:n]...)
		r.count.Add(int64(n))
		batch = batch[n:]
		if len(r.cur) == r.batchEvents {
			r.seg.publish(r.cur)
			r.cur = nil
		}
	}
	return nil
}

// SetStats attaches the producing reader's skip accounting, mirroring
// EventBuffer.SetStats; call before CloseSend.
func (r *Ring) SetStats(st ReadStats) { r.seg.SetStats(st) }

// Stats returns the accounting set by SetStats.
func (r *Ring) Stats() ReadStats { return r.seg.Stats() }

// CloseSend ends the stream: a partial batch in progress is published, and
// consumers that drain the ring then observe err (nil = clean end, reported
// as io.EOF). CloseSend is idempotent; the first error wins.
func (r *Ring) CloseSend(err error) {
	if len(r.cur) > 0 {
		r.seg.publish(r.cur)
	}
	r.cur = nil
	r.seg.CloseSend(err)
}

// RingConsumer is one consumer's cursor over a Ring. Each consumer slot
// may be used from one goroutine at a time. Next returns the next batch in
// stream order, valid only until the following Next or Close call; Close
// deregisters the consumer, as for any SegRing.
type RingConsumer = SegConsumer[[]Event]

// Consumer returns the cursor for consumer slot i (0 ≤ i < consumers).
func (r *Ring) Consumer(i int) *RingConsumer { return r.seg.Consumer(i) }
