package main

import (
	"encoding/json"
	"io"
	"sort"
	"sync"
	"time"
)

// Span is one timed call the benchmark made into a layer of the program.
// Start and End are nanoseconds since the recorder started; Parent is the
// ID of the enclosing span (0 for a root). Events and Bytes carry the work
// the call did, so per-event rates are measured where the work happens.
type Span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Run    string `json:"run"`
	Name   string `json:"name"`
	Tag    string `json:"tag,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Events int64  `json:"events,omitempty"`
	Bytes  int64  `json:"bytes,omitempty"`
}

// Recorder keeps spans in memory until the run ends. A nil *Recorder is
// the untraced mode: every method is a no-op that returns span ID 0.
type Recorder struct {
	run   string
	t0    time.Time
	mu    sync.Mutex
	spans []Span
}

func newRecorder(run string) *Recorder {
	return &Recorder{run: run, t0: time.Now()}
}

// Begin opens a span and returns its ID.
func (r *Recorder) Begin(name string, parent int) int {
	if r == nil {
		return 0
	}
	now := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, Span{ID: id, Parent: parent, Run: r.run, Name: name, Start: now, End: -1})
	return id
}

// End closes span id, recording the work it did.
func (r *Recorder) End(id int, tag string, events, bytes int64) {
	if r == nil || id == 0 {
		return
	}
	now := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	s := &r.spans[id-1]
	s.End, s.Tag, s.Events, s.Bytes = now, tag, events, bytes
}

// Add records a span whose interval was observed rather than wrapped, such
// as the wait between a job's submission and its first running event.
func (r *Recorder) Add(name string, parent int, start, end time.Time) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, Span{ID: len(r.spans) + 1, Parent: parent, Run: r.run, Name: name,
		Start: start.Sub(r.t0).Nanoseconds(), End: end.Sub(r.t0).Nanoseconds()})
}

// Spans returns a copy of the finished spans.
func (r *Recorder) Spans() []Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Span, 0, len(r.spans))
	for _, s := range r.spans {
		if s.End >= s.Start {
			out = append(out, s)
		}
	}
	return out
}

// WriteJSONL writes one span per line.
func (r *Recorder) WriteJSONL(w io.Writer) error {
	enc := json.NewEncoder(w)
	for _, s := range r.Spans() {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return nil
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its children cover. Overlapping children (calls made
// concurrently from one parent) are counted once, and a child's time
// outside its parent's interval is ignored.
func selfTimes(spans []Span) map[int]int64 {
	children := make(map[int][]Span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]int64, len(spans))
	for _, p := range spans {
		type iv struct{ lo, hi int64 }
		var ivs []iv
		for _, c := range children[p.ID] {
			lo, hi := max(c.Start, p.Start), min(c.End, p.End)
			if hi > lo {
				ivs = append(ivs, iv{lo, hi})
			}
		}
		sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
		var covered, curLo, curHi int64
		open := false
		for _, v := range ivs {
			switch {
			case !open:
				curLo, curHi, open = v.lo, v.hi, true
			case v.lo <= curHi:
				curHi = max(curHi, v.hi)
			default:
				covered += curHi - curLo
				curLo, curHi = v.lo, v.hi
			}
		}
		if open {
			covered += curHi - curLo
		}
		self[p.ID] = p.End - p.Start - covered
	}
	return self
}

// spanAgg sums the spans of one name.
type spanAgg struct {
	n      int
	selfNs int64
	events int64
	bytes  int64
	durs   []float64 // whole-span durations in seconds
}

// aggregate groups spans by name (and, when byTag is set, by name+"@"+tag).
func aggregate(spans []Span, byTag bool) map[string]*spanAgg {
	self := selfTimes(spans)
	out := make(map[string]*spanAgg)
	for _, s := range spans {
		key := s.Name
		if byTag && s.Tag != "" {
			key += "@" + s.Tag
		}
		a := out[key]
		if a == nil {
			a = &spanAgg{}
			out[key] = a
		}
		a.n++
		a.selfNs += self[s.ID]
		a.events += s.Events
		a.bytes += s.Bytes
		a.durs = append(a.durs, float64(s.End-s.Start)/1e9)
	}
	return out
}

// nsPerEvent is the self time per event of the aggregated spans.
func (a *spanAgg) nsPerEvent() float64 {
	if a.events == 0 {
		return 0
	}
	return float64(a.selfNs) / float64(a.events)
}
