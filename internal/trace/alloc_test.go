package trace_test

import (
	"context"
	"reflect"
	"testing"

	"paragraph/internal/trace"
)

// allocsFlat fails t if the heap allocations of the function prepare
// returns grow between a 10k- and a 100k-event input: a per-event
// allocation shows up as ~90k extra. prepare's own work is not counted.
func allocsFlat(t *testing.T, prepare func(events []trace.Event) func()) {
	t.Helper()
	var allocs [2]float64
	for i, n := range []int{10_000, 100_000} {
		allocs[i] = testing.AllocsPerRun(3, prepare(bufEvents(n)))
	}
	if allocs[1] > allocs[0]+8 {
		t.Errorf("allocations grow with events: %.0f at 10k, %.0f at 100k", allocs[0], allocs[1])
	}
}

// TestReplayContextAllocationFree is the allocation gate of per-event
// replay: the defensive copy handed to the sink is one variable per call.
func TestReplayContextAllocationFree(t *testing.T) {
	allocsFlat(t, func(events []trace.Event) func() {
		buf := record(t, events)
		return func() {
			var c trace.Counter
			if err := buf.ReplayContext(context.Background(), &c); err != nil || c.N != uint64(len(events)) {
				t.Fatalf("replayed %d of %d events: %v", c.N, len(events), err)
			}
		}
	})
}

// TestAsBatchAllocationFree is the same gate for the adapter that feeds a
// batch to a per-event Sink.
func TestAsBatchAllocationFree(t *testing.T) {
	allocsFlat(t, func(events []trace.Event) func() {
		return func() {
			var c trace.Counter
			if err := trace.AsBatch(&c).Events(events); err != nil || c.N != uint64(len(events)) {
				t.Fatalf("delivered %d of %d events: %v", c.N, len(events), err)
			}
		}
	})
}

// TestAsBatchIsolation: the adapter still copies each event, so a sink
// mutating its argument sees every event intact and cannot corrupt the
// batch.
func TestAsBatchIsolation(t *testing.T) {
	events := bufEvents(64)
	batch := append([]trace.Event(nil), events...)
	var got []trace.Event
	err := trace.AsBatch(trace.SinkFunc(func(e *trace.Event) error {
		got = append(got, *e)
		e.PC = 0xdeadbeef
		e.MemAddr = 1
		return nil
	})).Events(batch)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(batch, events) {
		t.Fatal("mutating sink leaked into the batch")
	}
	if !reflect.DeepEqual(got, events) {
		t.Fatal("sink saw events other than the batch's")
	}
}
