package main

import (
	"bytes"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestSelfTimeSubtractsOverlappingChildrenOnce(t *testing.T) {
	spans := []Span{
		{ID: 1, Name: "parent", Start: 0, End: 100},
		// Two concurrent children overlapping on [20, 30), a third
		// disjoint one, and one that spills past the parent's end.
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "b", Start: 20, End: 40},
		{ID: 4, Parent: 1, Name: "c", Start: 50, End: 60},
		{ID: 5, Parent: 1, Name: "d", Start: 90, End: 120},
		// A grandchild is covered by its own parent, not by span 1.
		{ID: 6, Parent: 3, Name: "e", Start: 25, End: 35},
	}
	self := selfTimes(spans)
	// Children cover [10,40) + [50,60) + [90,100) = 50 of 100.
	if got := self[1]; got != 50 {
		t.Errorf("parent self time = %d, want 50", got)
	}
	if got := self[3]; got != 10 {
		t.Errorf("child b self time = %d, want 10 (20 minus the grandchild's 10)", got)
	}
	if got := self[4]; got != 10 {
		t.Errorf("leaf self time = %d, want its duration 10", got)
	}
	agg := aggregate(spans, false)
	if a := agg["a"]; a.n != 1 || a.selfNs != 20 {
		t.Errorf("aggregate a = %+v", a)
	}
}

func TestSelfTimeNestedAndContainedChildren(t *testing.T) {
	spans := []Span{
		{ID: 1, Name: "p", Start: 0, End: 10},
		{ID: 2, Parent: 1, Name: "x", Start: 2, End: 8},
		{ID: 3, Parent: 1, Name: "x", Start: 3, End: 5}, // inside the first child
	}
	if got := selfTimes(spans)[1]; got != 4 {
		t.Errorf("self = %d, want 4", got)
	}
	agg := aggregate(spans, false)
	if x := agg["x"]; x.n != 2 || x.selfNs != 8 {
		t.Errorf("aggregate x = %+v, want two spans with 8ns self time", x)
	}
}

func TestRecorderNilIsNoOp(t *testing.T) {
	var r *Recorder
	id := r.Begin("x", 0)
	r.End(id, "tag", 1, 1)
	r.Add("y", 0, time.Now(), time.Now())
	if id != 0 || r.Spans() != nil {
		t.Fatal("nil recorder recorded something")
	}
}

func TestRecorderConcurrentSpans(t *testing.T) {
	r := newRecorder("run-1")
	root := r.Begin("root", 0)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			id := r.Begin("child", root)
			r.End(id, "", 10, 0)
		}()
	}
	wg.Wait()
	r.End(root, "", 0, 0)
	spans := r.Spans()
	if len(spans) != 9 {
		t.Fatalf("got %d spans, want 9", len(spans))
	}
	if a := aggregate(spans, false)["child"]; a.n != 8 || a.events != 80 {
		t.Errorf("children = %+v", a)
	}
	var buf bytes.Buffer
	if err := r.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(buf.String(), "\n"); lines != 9 || !strings.Contains(buf.String(), `"run":"run-1"`) {
		t.Errorf("JSONL output has %d lines: %s", lines, buf.String())
	}
}
