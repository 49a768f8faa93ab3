package trace

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
)

// SegRing is a bounded, single-producer, multi-consumer broadcast buffer
// holding one item per slot, and the one implementation of the ring
// protocol in this package: the producer blocks while the slowest live
// consumer is a full ring behind, consumers release a slot by asking for
// the next item, Close deregisters a consumer, and a bound context
// unblocks everyone. Memory held is therefore a function of depth, never
// of stream length. The resolved engine fans dependence-record segments
// from one resolver out to N schedulers through a SegRing of pointers to
// ~128 KB segments; Ring is a SegRing of event batches.
//
// Items are handed off by reference, and Send returns the item its slot
// displaces — one every live consumer has released — so a producer can
// recycle it (the resolver reuses a displaced segment's arrays; Ring
// claims a slot and refills the batch it releases in place before
// publishing it). A consumer must therefore not retain an item after
// asking for the next one or closing.
type SegRing[T any] struct {
	ctx       context.Context
	stopWatch func() bool

	nslots int

	mu      sync.Mutex
	cond    *sync.Cond
	slots   []T
	head    int64 // items published so far
	pos     []int64
	done    []bool
	ndone   int
	closed  bool
	sendErr error
	stats   ReadStats
}

// SegRing sizing default and floor: segments are three orders of magnitude
// larger than single events, so a much shallower ring than Ring's 64
// batches absorbs the same consumer skew.
const (
	// DefaultSegRingDepth is the capacity used when depth is zero.
	DefaultSegRingDepth = 16
	// MinSegRingDepth is the smallest capacity that still overlaps
	// production with consumption.
	MinSegRingDepth = 2
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

// NewSegRing returns a ring broadcasting to the given number of consumers,
// bound to ctx. Depth 0 selects DefaultSegRingDepth; values below
// MinSegRingDepth are raised to it. Every consumer slot must be claimed
// with Consumer and either drained to EOF or Closed, or the producer will
// block forever waiting for it.
func NewSegRing[T any](ctx context.Context, consumers, depth int) *SegRing[T] {
	if consumers < 1 {
		consumers = 1
	}
	if depth <= 0 {
		depth = DefaultSegRingDepth
	}
	if depth < MinSegRingDepth {
		depth = MinSegRingDepth
	}
	r := &SegRing[T]{
		ctx:    ctx,
		nslots: depth,
		slots:  make([]T, depth),
		pos:    make([]int64, consumers),
		done:   make([]bool, consumers),
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

// minPos returns the position of the slowest live consumer; ok is false
// when every consumer has closed.
func (r *SegRing[T]) minPos() (min int64, ok bool) {
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

// Send publishes one item, blocking while the slowest consumer is a full
// ring behind, and returns the item the new one displaced from its slot
// (the zero value while the ring is filling). Every live consumer has
// advanced past the displaced item, so the producer may reuse it. Once
// every consumer has closed Send returns ErrRingDrained — a stop signal,
// not a failure.
func (r *SegRing[T]) Send(item T) (displaced T, err error) {
	if displaced, err = r.claim(); err == nil {
		r.publish(item)
	}
	return displaced, err
}

// claim waits until the next slot is free of every live consumer and
// returns the item it still holds, for the producer to reuse. The slot is
// the producer's until publish: no consumer reads it in between.
func (r *SegRing[T]) claim() (released T, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for {
		if err := r.ctx.Err(); err != nil {
			return released, fmt.Errorf("trace: ring send canceled at item %d: %w", r.head, err)
		}
		if r.closed {
			return released, errors.New("trace: ring send after CloseSend")
		}
		if r.ndone == len(r.pos) {
			return released, fmt.Errorf("%w (at item %d)", ErrRingDrained, r.head)
		}
		min, ok := r.minPos()
		if !ok || r.head-min < int64(r.nslots) {
			return r.slots[r.head%int64(r.nslots)], nil
		}
		r.cond.Wait()
	}
}

// publish stores item in the slot claim returned and hands it to the
// consumers.
func (r *SegRing[T]) publish(item T) {
	r.mu.Lock()
	r.slots[r.head%int64(r.nslots)] = item
	r.head++
	r.cond.Broadcast()
	r.mu.Unlock()
}

// Count returns the number of items published so far.
func (r *SegRing[T]) Count() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.head
}

// SetStats attaches the producing reader's skip accounting; call before
// CloseSend.
func (r *SegRing[T]) SetStats(st ReadStats) {
	r.mu.Lock()
	r.stats = st
	r.mu.Unlock()
}

// Stats returns the accounting set by SetStats.
func (r *SegRing[T]) Stats() ReadStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.stats
}

// CloseSend ends the stream: consumers that drain the ring observe err
// (nil = clean end, reported as io.EOF). Idempotent; the first error wins.
func (r *SegRing[T]) CloseSend(err error) {
	r.mu.Lock()
	if !r.closed {
		r.closed = true
		r.sendErr = err
	}
	r.cond.Broadcast()
	r.mu.Unlock()
	if r.stopWatch != nil {
		r.stopWatch()
	}
}

// SegConsumer is one consumer's cursor over a SegRing. Each consumer slot
// may be used from one goroutine at a time.
type SegConsumer[T any] struct {
	r      *SegRing[T]
	id     int
	handed bool
}

// Consumer returns the cursor for consumer slot i (0 ≤ i < consumers).
func (r *SegRing[T]) Consumer(i int) *SegConsumer[T] {
	if i < 0 || i >= len(r.pos) {
		panic(fmt.Sprintf("trace: ring consumer %d of %d", i, len(r.pos)))
	}
	return &SegConsumer[T]{r: r, id: i}
}

// Next returns the next item in stream order, blocking until the producer
// publishes one. The item stays valid until the following Next or Close
// call: asking for the next item is what releases the current one for the
// producer to reuse. At a clean end of stream Next returns io.EOF; a producer
// failure surfaces as a *RingProducerError after every item published
// before the failure has been delivered.
func (c *SegConsumer[T]) Next() (T, error) {
	var zero T
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
			return zero, fmt.Errorf("trace: ring replay canceled at item %d: %w", r.pos[c.id], err)
		}
		if r.pos[c.id] < r.head {
			c.handed = true
			return r.slots[r.pos[c.id]%int64(r.nslots)], nil
		}
		if r.closed {
			if r.sendErr != nil {
				return zero, &RingProducerError{Err: r.sendErr}
			}
			return zero, io.EOF
		}
		r.cond.Wait()
	}
}

// Close deregisters the consumer: it stops gating the producer's progress,
// which may unblock a producer waiting on this consumer (or fail it with
// ErrRingDrained once no consumers remain), and releases the item it holds.
// Idempotent; draining to EOF makes it a no-op but still safe.
func (c *SegConsumer[T]) Close() {
	r := c.r
	r.mu.Lock()
	if !r.done[c.id] {
		r.done[c.id] = true
		r.ndone++
		r.cond.Broadcast()
	}
	r.mu.Unlock()
}
