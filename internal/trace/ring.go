package trace

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"unsafe"
)

// Ring is a bounded, single-producer, multi-consumer broadcast buffer of
// event batches: the constant-memory alternative to recording a whole
// trace into an EventBuffer before fanning it out. The producer (a CPU
// simulation or a trace reader) appends events while every consumer (for
// example one analyzer per configuration) replays the identical sequence
// concurrently;
// when the slowest consumer falls Batches batches behind, the producer
// blocks until it catches up. Memory held by the ring is therefore a
// function of configuration — Batches × BatchEvents × sizeof(Event) — and
// never of trace length, which is what lets a -j N multi-config analysis
// of a billion-event trace run inside a fixed window.
//
// Batch slots are reused: once every consumer has advanced past a batch,
// the producer refills its backing array in place. All handoffs are
// mutex-synchronized, so the reuse is race-free by construction (the ring
// tests run under -race to prove it). The
// slices handed to consumers follow the BatchSink contract — read-only,
// invalid once the consumer asks for the next batch.
//
// A Ring is bound to a context at construction: a cancellation unblocks
// both a producer waiting for ring space and consumers waiting for data,
// each returning an error wrapping ctx.Err().
type Ring struct {
	ctx       context.Context
	stopWatch func() bool

	batchEvents int
	nslots      int

	mu      sync.Mutex
	cond    *sync.Cond
	slots   [][]Event
	lens    []int
	head    int64 // batches published so far
	pos     []int64
	done    []bool
	ndone   int
	closed  bool
	sendErr error
	stats   ReadStats
	total   int64

	// cur aliases slots[head%nslots] while the producer fills it; only the
	// producer goroutine touches it, so appends need no lock.
	cur     []Event
	claimed bool
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

// ErrRingDrained is returned by producer sends once every consumer has
// closed: nothing will ever read the stream again, so the producer should
// stop. Engines treat it as a signal, not a failure — the consumers' own
// errors explain why they left.
var ErrRingDrained = errors.New("trace: ring has no remaining consumers")

// RingProducerError wraps the producer-side failure a consumer observes at
// the end of a broken stream. Engines use the type to tell a consumer's own
// failure from an echo of the producer's, so the producer error is reported
// once rather than once per configuration.
type RingProducerError struct{ Err error }

func (e *RingProducerError) Error() string {
	return fmt.Sprintf("trace: ring producer failed: %v", e.Err)
}

// Unwrap keeps the producer's error chain classifiable through the echo.
func (e *RingProducerError) Unwrap() error { return e.Err }

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
	if consumers < 1 {
		consumers = 1
	}
	batches := o.Batches
	if batches <= 0 {
		batches = DefaultRingBatches
	}
	if batches < MinRingBatches {
		batches = MinRingBatches
	}
	be := o.BatchEvents
	if be <= 0 {
		be = DefaultBatchEvents
	}
	r := &Ring{
		ctx:         ctx,
		batchEvents: be,
		nslots:      batches,
		slots:       make([][]Event, batches),
		lens:        make([]int, batches),
		pos:         make([]int64, consumers),
		done:        make([]bool, consumers),
	}
	for i := range r.slots {
		r.slots[i] = make([]Event, 0, be)
	}
	r.cond = sync.NewCond(&r.mu)
	if ctx.Done() != nil {
		// A cancellation must wake waiters parked on the condition
		// variable. Taking the lock before broadcasting orders the wakeup
		// after any in-progress wait re-check, closing the lost-wakeup
		// window; AfterFunc keeps the ring goroutine-free.
		r.stopWatch = context.AfterFunc(ctx, func() {
			r.mu.Lock()
			//lint:ignore SA2001 empty critical section orders the broadcast
			r.mu.Unlock()
			r.cond.Broadcast()
		})
	}
	return r
}

// Bytes reports the ring's fixed footprint — what a memory budget should
// meter for the bounded engine, replacing the EventBuffer's trace-length-
// proportional figure.
func (r *Ring) Bytes() int64 {
	return int64(r.nslots) * int64(r.batchEvents) * int64(unsafe.Sizeof(Event{}))
}

// Count returns the number of events published so far.
func (r *Ring) Count() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := r.total
	if r.claimed {
		n += int64(len(r.cur))
	}
	return n
}

// minPos returns the position of the slowest live consumer; ok is false
// when every consumer has closed.
func (r *Ring) minPos() (min int64, ok bool) {
	for i, p := range r.pos {
		if r.done[i] {
			continue
		}
		if !ok || p < min {
			min, ok = p, true
		}
	}
	return min, ok
}

// claim reserves the next batch slot for the producer, blocking while the
// slowest consumer is a full ring behind.
func (r *Ring) claim() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	for {
		if err := r.ctx.Err(); err != nil {
			return fmt.Errorf("trace: ring send canceled at event %d: %w", r.total, err)
		}
		if r.closed {
			return errors.New("trace: ring send after CloseSend")
		}
		if r.ndone == len(r.pos) {
			return fmt.Errorf("%w (at event %d)", ErrRingDrained, r.total)
		}
		min, ok := r.minPos()
		if !ok || r.head-min < int64(r.nslots) {
			break
		}
		r.cond.Wait()
	}
	r.cur = r.slots[r.head%int64(r.nslots)][:0]
	r.claimed = true
	return nil
}

// publish makes the in-progress batch visible to consumers.
func (r *Ring) publish() {
	r.mu.Lock()
	i := r.head % int64(r.nslots)
	r.slots[i] = r.cur[:0] // keep the (possibly identical) backing array
	r.lens[i] = len(r.cur)
	r.total += int64(len(r.cur))
	r.head++
	r.claimed = false
	r.cur = nil
	r.cond.Broadcast()
	r.mu.Unlock()
}

// Event implements Sink: it appends one event, publishing a batch every
// BatchEvents events and blocking under backpressure.
func (r *Ring) Event(e *Event) error {
	if !r.claimed {
		if err := r.claim(); err != nil {
			return err
		}
	}
	r.cur = append(r.cur, *e)
	if len(r.cur) == r.batchEvents {
		r.publish()
	}
	return nil
}

// Events implements BatchSink: a bulk append of the batch, split across
// ring slots as needed. The input follows the usual contract (read-only,
// not retained): events are copied into the ring's own slots.
func (r *Ring) Events(batch []Event) error {
	for len(batch) > 0 {
		if !r.claimed {
			if err := r.claim(); err != nil {
				return err
			}
		}
		n := r.batchEvents - len(r.cur)
		if n > len(batch) {
			n = len(batch)
		}
		r.cur = append(r.cur, batch[:n]...)
		batch = batch[n:]
		if len(r.cur) == r.batchEvents {
			r.publish()
		}
	}
	return nil
}

// SetStats attaches the producing reader's skip accounting, mirroring
// EventBuffer.SetStats; call before CloseSend.
func (r *Ring) SetStats(st ReadStats) {
	r.mu.Lock()
	r.stats = st
	r.mu.Unlock()
}

// Stats returns the accounting set by SetStats.
func (r *Ring) Stats() ReadStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.stats
}

// CloseSend ends the stream: a partial batch in progress is published, and
// consumers that drain the ring then observe err (nil = clean end, reported
// as io.EOF). CloseSend is idempotent; the first error wins.
func (r *Ring) CloseSend(err error) {
	r.mu.Lock()
	if !r.closed {
		if r.claimed && len(r.cur) > 0 {
			i := r.head % int64(r.nslots)
			r.slots[i] = r.cur[:0]
			r.lens[i] = len(r.cur)
			r.total += int64(len(r.cur))
			r.head++
		}
		r.claimed = false
		r.cur = nil
		r.closed = true
		r.sendErr = err
	}
	r.cond.Broadcast()
	r.mu.Unlock()
	if r.stopWatch != nil {
		r.stopWatch()
	}
}

// RingConsumer is one consumer's cursor over the ring. Each consumer slot
// may be used from one goroutine at a time.
type RingConsumer struct {
	r      *Ring
	id     int
	handed bool
}

// Consumer returns the cursor for consumer slot i (0 ≤ i < consumers).
func (r *Ring) Consumer(i int) *RingConsumer {
	if i < 0 || i >= len(r.pos) {
		panic(fmt.Sprintf("trace: ring consumer %d of %d", i, len(r.pos)))
	}
	return &RingConsumer{r: r, id: i}
}

// Next returns the next batch in stream order, blocking until the producer
// publishes one. The returned slice is valid only until the following Next
// (or Close) call — asking for the next batch is what releases the current
// one for slot reuse. At a clean end of stream Next returns io.EOF; a
// producer failure surfaces as a *RingProducerError after all batches
// published before the failure have been delivered.
func (c *RingConsumer) Next() ([]Event, error) {
	r := c.r
	r.mu.Lock()
	defer r.mu.Unlock()
	if c.handed {
		r.pos[c.id]++
		c.handed = false
		r.cond.Broadcast()
	}
	for {
		if err := r.ctx.Err(); err != nil {
			return nil, fmt.Errorf("trace: ring replay canceled at batch %d: %w", r.pos[c.id], err)
		}
		if r.pos[c.id] < r.head {
			c.handed = true
			i := r.pos[c.id] % int64(r.nslots)
			return r.slots[i][:r.lens[i]], nil
		}
		if r.closed {
			if r.sendErr != nil {
				return nil, &RingProducerError{Err: r.sendErr}
			}
			return nil, io.EOF
		}
		r.cond.Wait()
	}
}

// Close deregisters the consumer: it stops gating the producer's progress,
// which may unblock a producer waiting on this consumer (or fail it with
// ErrRingDrained once no consumers remain). Close is idempotent and must be
// called when a consumer exits early; draining to EOF makes it a no-op but
// still safe.
func (c *RingConsumer) Close() {
	r := c.r
	r.mu.Lock()
	if !r.done[c.id] {
		r.done[c.id] = true
		r.ndone++
		r.cond.Broadcast()
	}
	r.mu.Unlock()
}
