package stats

import (
	"bytes"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestLevelHistogramBasic(t *testing.T) {
	h := NewLevelHistogram(16)
	h.Add(0, 4)
	h.Add(1, 2)
	h.Add(2, 1)
	h.Add(3, 1)
	if h.Total() != 8 {
		t.Errorf("total = %d", h.Total())
	}
	maxL, ok := h.MaxLevel()
	if !ok || maxL != 3 {
		t.Errorf("max level = %d, %v", maxL, ok)
	}
	prof := h.Profile()
	want := []float64{4, 2, 1, 1}
	for i, p := range prof {
		if p.Ops != want[i] {
			t.Errorf("profile[%d] = %v, want %v", i, p.Ops, want[i])
		}
	}
	if h.Width() != 1 {
		t.Errorf("width = %d", h.Width())
	}
}

func TestLevelHistogramRescale(t *testing.T) {
	h := NewLevelHistogram(4)
	for level := int64(0); level < 16; level++ {
		h.Add(level, 1)
	}
	// 16 levels in 4 buckets: width must have grown to 4.
	if h.Width() != 4 {
		t.Errorf("width = %d, want 4", h.Width())
	}
	if h.Total() != 16 {
		t.Errorf("total = %d", h.Total())
	}
	for i, p := range h.Profile() {
		if p.Ops != 1.0 {
			t.Errorf("profile[%d] = %v, want 1.0 (uniform)", i, p.Ops)
		}
	}
}

func TestLevelHistogramMassConservedQuick(t *testing.T) {
	f := func(levels []uint16) bool {
		h := NewLevelHistogram(8)
		var total uint64
		for _, l := range levels {
			h.Add(int64(l), 1)
			total++
		}
		return h.Total() == total
	}
	cfg := &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(3))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestLevelHistogramProfileMassQuick(t *testing.T) {
	// Sum over buckets of (avg ops × span) must equal the total count.
	f := func(levels []uint16) bool {
		if len(levels) == 0 {
			return true
		}
		h := NewLevelHistogram(8)
		for _, l := range levels {
			h.Add(int64(l), 1)
		}
		maxL, _ := h.MaxLevel()
		var mass float64
		prof := h.Profile()
		for i, p := range prof {
			span := h.Width()
			if i == len(prof)-1 {
				span = maxL - p.Level + 1
				if span <= 0 || span > h.Width() {
					span = h.Width()
				}
			}
			mass += p.Ops * float64(span)
		}
		diff := mass - float64(h.Total())
		return diff < 1e-6 && diff > -1e-6
	}
	cfg := &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(4))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestLevelHistogramNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	NewLevelHistogram(4).Add(-1, 1)
}

func TestLevelHistogramMerge(t *testing.T) {
	a := NewLevelHistogram(8)
	b := NewLevelHistogram(8)
	a.Add(0, 3)
	a.Add(5, 2)
	b.Add(7, 4)
	a.Merge(b)
	if a.Total() != 9 {
		t.Errorf("merged total = %d", a.Total())
	}
	maxL, _ := a.MaxLevel()
	if maxL != 7 {
		t.Errorf("merged max = %d", maxL)
	}
}

// TestLevelHistogramStateValidate: every state a histogram reaches is
// valid, and each kind of state none could reach is refused — the widths
// that stall Merge's coarsening loop, more buckets than the capacity, and
// buckets past the int64 level range.
func TestLevelHistogramStateValidate(t *testing.T) {
	h := NewLevelHistogram(4)
	for _, level := range []int64{0, 9, 1 << 40, math.MaxInt64} {
		h.Add(level, 1)
		st := h.State()
		if err := st.Validate(); err != nil {
			t.Fatalf("state after adding level %d refused: %v", level, err)
		}
	}
	if err := (*LevelHistogramState)(nil).Validate(); err != nil {
		t.Errorf("nil state refused: %v", err)
	}
	for _, tc := range []struct {
		name string
		st   LevelHistogramState
		want string
	}{
		{"zero width", LevelHistogramState{Width: 0}, "power of two"},
		{"negative width", LevelHistogramState{Width: -4}, "power of two"},
		{"odd width", LevelHistogramState{Width: 3}, "power of two"},
		{"max width", LevelHistogramState{Width: math.MaxInt64}, "power of two"},
		{"over capacity", LevelHistogramState{Width: 1, MaxBuckets: 4, Counts: make([]uint64, 5)}, "capacity"},
		{"over default capacity", LevelHistogramState{Width: 1, Counts: make([]uint64, DefaultMaxBuckets+1)}, "capacity"},
		{"level overflow", LevelHistogramState{Width: 1 << 62, MaxBuckets: 4, Counts: make([]uint64, 3)}, "overflows"},
	} {
		if err := tc.st.Validate(); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Validate = %v, want %q", tc.name, err, tc.want)
		}
	}
}

func TestLogDist(t *testing.T) {
	var d LogDist
	for _, v := range []int64{0, 1, 1, 2, 3, 4, 100, 1000} {
		d.Add(v)
	}
	if d.Count() != 8 {
		t.Errorf("count = %d", d.Count())
	}
	if d.Min() != 0 || d.Max() != 1000 {
		t.Errorf("min/max = %d/%d", d.Min(), d.Max())
	}
	wantMean := float64(0+1+1+2+3+4+100+1000) / 8
	if d.Mean() != wantMean {
		t.Errorf("mean = %v, want %v", d.Mean(), wantMean)
	}
	buckets := d.Buckets()
	if buckets[0].Low != 0 || buckets[0].Count != 1 {
		t.Errorf("bucket 0 = %+v", buckets[0])
	}
	if buckets[1].Low != 1 || buckets[1].Count != 2 {
		t.Errorf("bucket 1 = %+v", buckets[1])
	}
	var total uint64
	for _, b := range buckets {
		total += b.Count
	}
	if total != 8 {
		t.Errorf("bucket mass = %d", total)
	}
}

func TestLogDistQuantile(t *testing.T) {
	var d LogDist
	for i := int64(1); i <= 100; i++ {
		d.Add(i)
	}
	if q := d.Quantile(0.5); q < 50 || q > 127 {
		t.Errorf("median bound = %d", q)
	}
	if q := d.Quantile(1.0); q < 100 {
		t.Errorf("q100 = %d", q)
	}
	var empty LogDist
	if empty.Quantile(0.5) != 0 {
		t.Error("empty quantile nonzero")
	}
}

func TestLogDistMerge(t *testing.T) {
	var a, b LogDist
	a.Add(5)
	b.Add(50)
	b.Add(2)
	a.Merge(&b)
	if a.Count() != 3 || a.Min() != 2 || a.Max() != 50 {
		t.Errorf("merge: %v", a.String())
	}
}

func TestLogDistMassQuick(t *testing.T) {
	f := func(vals []uint32) bool {
		var d LogDist
		for _, v := range vals {
			d.Add(int64(v))
		}
		var mass uint64
		for _, b := range d.Buckets() {
			if b.Low > b.High {
				return false
			}
			mass += b.Count
		}
		return mass == d.Count()
	}
	cfg := &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(5))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestTableRendering(t *testing.T) {
	tab := NewTable("Benchmark", "Parallelism")
	tab.AddRow("cc1", 36.21)
	tab.AddRow("matrix300", 23302.6)
	out := tab.String()
	if !strings.Contains(out, "cc1") || !strings.Contains(out, "36.21") {
		t.Errorf("table missing cells:\n%s", out)
	}
	if !strings.Contains(out, "23,302.60") {
		t.Errorf("thousands separator missing:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 { // header, rule, 2 rows
		t.Errorf("got %d lines:\n%s", len(lines), out)
	}
}

func TestFormatHelpers(t *testing.T) {
	cases := map[int64]string{
		0: "0", 999: "999", 1000: "1,000", 1234567: "1,234,567", -5650548: "-5,650,548",
	}
	for v, want := range cases {
		if got := FormatInt(v); got != want {
			t.Errorf("FormatInt(%d) = %q, want %q", v, got, want)
		}
	}
	if got := FormatFloat(-1234.5); got != "-1,234.50" {
		t.Errorf("FormatFloat = %q", got)
	}
	if got := FormatFloat(13.284); got != "13.28" {
		t.Errorf("FormatFloat = %q", got)
	}
}

func TestWriteCSV(t *testing.T) {
	var buf bytes.Buffer
	pts := []ProfilePoint{{Level: 0, Ops: 4}, {Level: 1, Ops: 2.5}}
	if err := WriteCSV(&buf, "level", "ops", pts); err != nil {
		t.Fatal(err)
	}
	want := "level,ops\n0,4\n1,2.5\n"
	if buf.String() != want {
		t.Errorf("csv = %q, want %q", buf.String(), want)
	}
}

func TestAsciiPlot(t *testing.T) {
	var buf bytes.Buffer
	pts := make([]ProfilePoint, 100)
	for i := range pts {
		pts[i] = ProfilePoint{Level: int64(i), Ops: float64(i % 10)}
	}
	if err := AsciiPlot(&buf, "test profile", pts, 20, 30); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.HasPrefix(out, "test profile\n") {
		t.Errorf("missing title:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) < 10 || len(lines) > 22 {
		t.Errorf("downsampling produced %d rows", len(lines))
	}
	// Empty series should not error.
	if err := AsciiPlot(&buf, "empty", nil, 0, 0); err != nil {
		t.Fatal(err)
	}
}
