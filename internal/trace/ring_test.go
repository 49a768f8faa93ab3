package trace

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync/atomic"
	"testing"
	"time"
)

// ringEvents builds n distinguishable events (the ring never validates
// them, only moves them).
func ringEvents(n int) []Event {
	out := make([]Event, n)
	for i := range out {
		out[i] = Event{PC: uint32(0x400000 + 4*i), MemAddr: uint32(i)}
	}
	return out
}

// drain collects every event a consumer sees until EOF or error.
func drain(c *RingConsumer) ([]Event, error) {
	var got []Event
	for {
		batch, err := c.Next()
		if err == io.EOF {
			return got, nil
		}
		if err != nil {
			return got, err
		}
		got = append(got, batch...) // copy before releasing the slot
	}
}

// TestRingRoundTrip: events pushed through a tiny ring in awkward chunk
// sizes come out identical, including a partial final batch, and the
// producer's ReadStats travel with them.
func TestRingRoundTrip(t *testing.T) {
	in := ringEvents(10_007) // not a multiple of anything below
	ctx := context.Background()
	r := NewRing(ctx, 1, RingOptions{Batches: 3, BatchEvents: 64})
	want := ReadStats{Chunks: 123, SkippedChunks: 2}
	go func() {
		// Mixed per-event and batched sends, odd batch sizes.
		for i := 0; i < len(in); {
			if i%3 == 0 {
				if err := r.Event(&in[i]); err != nil {
					panic(err)
				}
				i++
				continue
			}
			end := i + 97
			if end > len(in) {
				end = len(in)
			}
			if err := r.Events(in[i:end]); err != nil {
				panic(err)
			}
			i = end
		}
		r.SetStats(want)
		r.CloseSend(nil)
	}()
	got, err := drain(r.Consumer(0))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(in) {
		t.Fatalf("drained %d events, want %d", len(got), len(in))
	}
	for i := range got {
		if got[i] != in[i] {
			t.Fatalf("event %d = %+v, want %+v", i, got[i], in[i])
		}
	}
	if r.Count() != int64(len(in)) {
		t.Errorf("Count = %d, want %d", r.Count(), len(in))
	}
	if r.Stats() != want {
		t.Errorf("Stats = %+v, want %+v", r.Stats(), want)
	}
}

// TestRingBackpressureBounds: with the slowest consumer stalled, the
// producer gets exactly one ring of batches ahead and then blocks — the
// boundedness claim — and resumes when the consumer catches up.
func TestRingBackpressureBounds(t *testing.T) {
	const batches, be = 2, 8
	r := NewRing(context.Background(), 1, RingOptions{Batches: batches, BatchEvents: be})
	in := ringEvents(be * 10)
	var sent atomic.Int64
	done := make(chan error, 1)
	go func() {
		for i := range in {
			if err := r.Event(&in[i]); err != nil {
				done <- err
				return
			}
			sent.Add(1)
		}
		r.CloseSend(nil)
		done <- nil
	}()
	// The consumer never reads: the producer claims a slot before filling
	// it, so it must wedge after exactly one ring's worth of events.
	limit := int64(batches * be)
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) && sent.Load() < limit {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond) // would overshoot here if unbounded
	if n := sent.Load(); n != limit {
		t.Fatalf("stalled consumer: producer sent %d events, want exactly %d", n, limit)
	}
	// Catching up releases the producer and the full stream arrives.
	got, err := drain(r.Consumer(0))
	if err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatalf("producer: %v", err)
	}
	if len(got) != len(in) {
		t.Fatalf("drained %d events, want %d", len(got), len(in))
	}
}

// TestRingCancelUnblocks: cancellation must wake both sides — a producer
// parked on backpressure and a consumer parked waiting for data — with
// errors wrapping ctx.Err().
func TestRingCancelUnblocks(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	r := NewRing(ctx, 2, RingOptions{Batches: 2, BatchEvents: 4})
	in := ringEvents(1024)
	prodErr := make(chan error, 1)
	go func() {
		// Consumer 0 never reads, so this blocks on backpressure.
		prodErr <- r.Events(in)
	}()
	consErr := make(chan error, 1)
	go func() {
		// Consumer 1 drains everything published, then parks for more.
		_, err := drain(r.Consumer(1))
		consErr <- err
	}()
	time.Sleep(10 * time.Millisecond)
	cancel()
	select {
	case err := <-prodErr:
		if !errors.Is(err, context.Canceled) {
			t.Errorf("producer err = %v, want context.Canceled in the chain", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("cancel did not unblock the producer")
	}
	select {
	case err := <-consErr:
		if !errors.Is(err, context.Canceled) {
			t.Errorf("consumer err = %v, want context.Canceled in the chain", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("cancel did not unblock the consumer")
	}
}

// TestRingProducerErrorAfterDrain: a producer failure is delivered to
// consumers only after every batch published before it — nothing already
// produced is lost — and arrives as a classifiable *RingProducerError.
func TestRingProducerErrorAfterDrain(t *testing.T) {
	r := NewRing(context.Background(), 1, RingOptions{Batches: 4, BatchEvents: 8})
	in := ringEvents(20) // 2.5 batches
	boom := fmt.Errorf("simulation exploded")
	if err := r.Events(in); err != nil {
		t.Fatal(err)
	}
	r.CloseSend(boom)
	got, err := drain(r.Consumer(0))
	if len(got) != len(in) {
		t.Errorf("drained %d events before the failure, want %d", len(got), len(in))
	}
	var pe *RingProducerError
	if !errors.As(err, &pe) || !errors.Is(err, boom) {
		t.Fatalf("err = %v, want a *RingProducerError wrapping the producer failure", err)
	}
}

// TestRingDrained: once every consumer has closed, producer sends fail
// with ErrRingDrained instead of blocking forever.
func TestRingDrained(t *testing.T) {
	r := NewRing(context.Background(), 2, RingOptions{Batches: 2, BatchEvents: 4})
	r.Consumer(0).Close()
	r.Consumer(1).Close()
	in := ringEvents(1024)
	err := r.Events(in)
	if !errors.Is(err, ErrRingDrained) {
		t.Fatalf("send into a drained ring: err = %v, want ErrRingDrained", err)
	}
}

// TestRingConsumerCloseReleasesBackpressure: the slowest consumer closing
// early stops gating the producer, which then runs at the pace of the
// remaining consumer.
func TestRingConsumerCloseReleasesBackpressure(t *testing.T) {
	r := NewRing(context.Background(), 2, RingOptions{Batches: 2, BatchEvents: 8})
	in := ringEvents(8 * 16)
	done := make(chan error, 1)
	go func() {
		if err := r.Events(in); err != nil {
			done <- err
			return
		}
		r.CloseSend(nil)
		done <- nil
	}()
	time.Sleep(10 * time.Millisecond) // let the producer wedge on consumer 0
	r.Consumer(0).Close()
	got, err := drain(r.Consumer(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatalf("producer: %v", err)
	}
	if len(got) != len(in) {
		t.Fatalf("surviving consumer drained %d events, want %d", len(got), len(in))
	}
}

// TestRingBytesIndependentOfEvents: the footprint is fixed at
// construction; pushing 100× more events through the same ring does not
// change it. This is the unit-level statement of the constant-memory
// claim the harness soak test makes end-to-end.
func TestRingBytesIndependentOfEvents(t *testing.T) {
	run := func(n int) int64 {
		r := NewRing(context.Background(), 1, RingOptions{Batches: 4, BatchEvents: 32})
		go func() {
			in := ringEvents(n)
			if err := r.Events(in); err != nil {
				panic(err)
			}
			r.CloseSend(nil)
		}()
		if _, err := drain(r.Consumer(0)); err != nil {
			t.Fatal(err)
		}
		return r.Bytes()
	}
	small, large := run(1_000), run(100_000)
	if small != large {
		t.Errorf("ring footprint grew with trace length: %d vs %d bytes", small, large)
	}
	if want := RingFootprint(4, 32); small != want {
		t.Errorf("Bytes = %d, want RingFootprint = %d", small, want)
	}
}

// TestRingSendAfterClose: the producer API fails loudly on misuse.
func TestRingSendAfterClose(t *testing.T) {
	r := NewRing(context.Background(), 1, RingOptions{})
	r.CloseSend(nil)
	e := Event{PC: 1}
	if err := r.Event(&e); err == nil {
		t.Fatal("send after CloseSend succeeded")
	}
}

// TestRingCountConcurrent: Count may be called from any goroutine while
// the producer is filling a batch. Under -race, a Count that read the
// producer's batch in progress is reported as a data race.
func TestRingCountConcurrent(t *testing.T) {
	r := NewRing(context.Background(), 1, RingOptions{Batches: 2, BatchEvents: 8})
	in := ringEvents(2000)
	go func() {
		for i := range in {
			if err := r.Event(&in[i]); err != nil {
				panic(err)
			}
		}
		r.CloseSend(nil)
	}()
	stop := make(chan struct{})
	counted := make(chan error, 1)
	go func() {
		var last int64
		for {
			select {
			case <-stop:
				counted <- nil
				return
			default:
			}
			n := r.Count()
			if n < last || n > int64(len(in)) {
				counted <- fmt.Errorf("Count went from %d to %d over a %d-event stream", last, n, len(in))
				return
			}
			last = n
		}
	}()
	got, err := drain(r.Consumer(0))
	close(stop)
	if err != nil {
		t.Fatal(err)
	}
	if err := <-counted; err != nil {
		t.Fatal(err)
	}
	if len(got) != len(in) || r.Count() != int64(len(in)) {
		t.Fatalf("drained %d events, Count %d; want %d", len(got), r.Count(), len(in))
	}
}
