package trace

import (
	"context"
	"errors"
	"io"
	"sync"
	"testing"
	"time"
)

// TestSegRingBroadcastOrder pins that every consumer sees every item in
// publication order.
func TestSegRingBroadcastOrder(t *testing.T) {
	const items, consumers = 100, 3
	r := NewSegRing[int](context.Background(), consumers, 4)

	var wg sync.WaitGroup
	got := make([][]int, consumers)
	for id := 0; id < consumers; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			c := r.Consumer(id)
			defer c.Close()
			for {
				v, err := c.Next()
				if err == io.EOF {
					return
				}
				if err != nil {
					t.Errorf("consumer %d: %v", id, err)
					return
				}
				got[id] = append(got[id], v)
			}
		}(id)
	}
	for i := 0; i < items; i++ {
		if _, err := r.Send(i); err != nil {
			t.Fatalf("Send(%d): %v", i, err)
		}
	}
	r.CloseSend(nil)
	wg.Wait()

	for id, seq := range got {
		if len(seq) != items {
			t.Fatalf("consumer %d saw %d items, want %d", id, len(seq), items)
		}
		for i, v := range seq {
			if v != i {
				t.Fatalf("consumer %d item %d = %d", id, i, v)
			}
		}
	}
}

// TestSegRingBackpressure pins that the producer blocks once the slowest
// consumer is a full ring behind, and resumes when it advances.
func TestSegRingBackpressure(t *testing.T) {
	const depth = MinSegRingDepth
	r := NewSegRing[int](context.Background(), 1, depth)
	c := r.Consumer(0)
	defer c.Close()

	for i := 0; i < depth; i++ {
		if _, err := r.Send(i); err != nil {
			t.Fatalf("Send(%d): %v", i, err)
		}
	}
	blocked := make(chan error, 1)
	go func() { _, err := r.Send(depth); blocked <- err }()
	select {
	case err := <-blocked:
		t.Fatalf("Send returned (%v) with a full ring and a stalled consumer", err)
	case <-time.After(20 * time.Millisecond):
	}
	// One Next hands out slot 0 but releases nothing; the second releases
	// slot 0 and unblocks the producer.
	if _, err := c.Next(); err != nil {
		t.Fatalf("Next: %v", err)
	}
	if _, err := c.Next(); err != nil {
		t.Fatalf("Next: %v", err)
	}
	select {
	case err := <-blocked:
		if err != nil {
			t.Fatalf("Send after release: %v", err)
		}
	case <-time.After(time.Second):
		t.Fatal("producer still blocked after consumer advanced")
	}
}

// TestSegRingProducerError pins that consumers drain all published items
// before observing the producer's failure, wrapped as *RingProducerError.
func TestSegRingProducerError(t *testing.T) {
	r := NewSegRing[int](context.Background(), 1, 8)
	boom := errors.New("boom")
	for i := 0; i < 3; i++ {
		if _, err := r.Send(i); err != nil {
			t.Fatalf("Send: %v", err)
		}
	}
	r.CloseSend(boom)

	c := r.Consumer(0)
	defer c.Close()
	for i := 0; i < 3; i++ {
		v, err := c.Next()
		if err != nil || v != i {
			t.Fatalf("Next = %d, %v; want %d, nil", v, err, i)
		}
	}
	_, err := c.Next()
	var pe *RingProducerError
	if !errors.As(err, &pe) || !errors.Is(err, boom) {
		t.Fatalf("Next after failed CloseSend = %v; want *RingProducerError wrapping boom", err)
	}
}

// TestSegRingDrained pins that Send fails with ErrRingDrained once every
// consumer has closed.
func TestSegRingDrained(t *testing.T) {
	r := NewSegRing[int](context.Background(), 2, 4)
	r.Consumer(0).Close()
	r.Consumer(1).Close()
	if _, err := r.Send(1); !errors.Is(err, ErrRingDrained) {
		t.Fatalf("Send with no consumers = %v; want ErrRingDrained", err)
	}
}

// TestSegRingCancel pins that a context cancellation unblocks both a
// blocked producer and a waiting consumer.
func TestSegRingCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	r := NewSegRing[int](ctx, 1, MinSegRingDepth)

	prod := make(chan error, 1)
	go func() {
		for i := 0; ; i++ {
			if _, err := r.Send(i); err != nil {
				prod <- err
				return
			}
		}
	}()
	cons := make(chan error, 1)
	go func() {
		c := r.Consumer(0)
		defer c.Close()
		for {
			if _, err := c.Next(); err != nil {
				cons <- err
				return
			}
		}
	}()
	time.Sleep(10 * time.Millisecond)
	cancel()
	for name, ch := range map[string]chan error{"producer": prod, "consumer": cons} {
		select {
		case err := <-ch:
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("%s unblocked with %v; want context.Canceled", name, err)
			}
		case <-time.After(time.Second):
			t.Fatalf("%s still blocked after cancel", name)
		}
	}
}

// TestSegRingSendAfterClose pins the post-CloseSend send error.
func TestSegRingSendAfterClose(t *testing.T) {
	r := NewSegRing[int](context.Background(), 1, 4)
	r.CloseSend(nil)
	if _, err := r.Send(1); err == nil {
		t.Fatal("Send after CloseSend succeeded")
	}
}

// TestSegRingDisplacedNeverHeld pins the recycling contract Send's return
// value rests on: the item a Send displaces is never one a live consumer
// still holds. Each consumer publishes the item it holds; the producer
// checks every displaced item against those and then scribbles over it,
// so under -race a consumer still reading a displaced item is a reported
// race as well as a content mismatch. Consumers run at different speeds
// and one leaves early, so the slowest live consumer keeps changing.
func TestSegRingDisplacedNeverHeld(t *testing.T) {
	type item struct {
		seq  int
		data [8]int
	}
	const items, consumers, depth = 2000, 4, 3
	r := NewSegRing[*item](context.Background(), consumers, depth)

	var mu sync.Mutex
	held := make([]*item, consumers)
	var wg sync.WaitGroup
	for id := 0; id < consumers; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			c := r.Consumer(id)
			defer func() {
				mu.Lock()
				held[id] = nil
				mu.Unlock()
				c.Close()
			}()
			for n := 0; ; n++ {
				// Asking for the next item releases the held one.
				mu.Lock()
				held[id] = nil
				mu.Unlock()
				it, err := c.Next()
				if err == io.EOF {
					return
				}
				if err != nil {
					t.Errorf("consumer %d: %v", id, err)
					return
				}
				mu.Lock()
				held[id] = it
				mu.Unlock()
				for _, v := range it.data {
					if v != it.seq {
						t.Errorf("consumer %d: item %d overwritten while held (saw %d)", id, it.seq, v)
						return
					}
				}
				if n%(id+1) == 0 {
					time.Sleep(time.Duration(id) * time.Microsecond)
				}
				if id == consumers-1 && n == items/3 {
					return // an early leaver stops gating the producer
				}
			}
		}(id)
	}

	var free []*item
	for i := 0; i < items; i++ {
		it := &item{}
		if n := len(free); n > 0 {
			it, free = free[n-1], free[:n-1]
		}
		it.seq = i
		for j := range it.data {
			it.data[j] = i
		}
		old, err := r.Send(it)
		if err != nil {
			t.Fatalf("Send(%d): %v", i, err)
		}
		if old == nil {
			continue
		}
		mu.Lock()
		for id, h := range held {
			if h == old {
				t.Errorf("Send(%d) displaced item %d, still held by consumer %d", i, old.seq, id)
			}
		}
		mu.Unlock()
		for j := range old.data {
			old.data[j] = -1
		}
		free = append(free, old)
	}
	r.CloseSend(nil)
	wg.Wait()
}
