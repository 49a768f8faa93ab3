package stats

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"
)

// Property tests for the merge operations the shard-result merger depends
// on. Sharded analysis reassembles per-shard histograms and distributions
// with Merge, so Merge must behave like a mathematical sum: commutative,
// associative, with the zero container as identity, and exactly preserved
// by the State round-trip used for gob persistence.

// histFromSeed builds a deterministic histogram. All generated histograms
// share maxBuckets (as all shards of one analysis do); levels span several
// octaves so rescaling — and therefore the width-alignment path of Merge —
// is exercised.
func histFromSeed(seed int64, maxBuckets int) *LevelHistogram {
	rng := rand.New(rand.NewSource(seed))
	h := NewLevelHistogram(maxBuckets)
	n := rng.Intn(64)
	for i := 0; i < n; i++ {
		level := rng.Int63n(1 << uint(4+rng.Intn(16)))
		h.Add(level, uint64(1+rng.Intn(5)))
	}
	return h
}

// mergeHist merges without mutating its arguments.
func mergeHist(a, b *LevelHistogram) *LevelHistogram {
	m := a.Clone()
	m.Merge(b)
	return m
}

// histEqual compares full observable state — bucket contents, width, total
// and extremes. Merge must produce identical state regardless of order, so
// State equality (not just Profile equality) is the right notion.
func histEqual(a, b *LevelHistogram) bool {
	return reflect.DeepEqual(a.State(), b.State())
}

func TestQuickLevelHistogramMergeCommutative(t *testing.T) {
	f := func(sa, sb int64) bool {
		a, b := histFromSeed(sa, 256), histFromSeed(sb, 256)
		return histEqual(mergeHist(a, b), mergeHist(b, a))
	}
	cfg := &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(41))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestQuickLevelHistogramMergeAssociative(t *testing.T) {
	f := func(sa, sb, sc int64) bool {
		a, b, c := histFromSeed(sa, 128), histFromSeed(sb, 128), histFromSeed(sc, 128)
		left := mergeHist(mergeHist(a, b), c)
		right := mergeHist(a, mergeHist(b, c))
		return histEqual(left, right)
	}
	cfg := &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(43))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestQuickLevelHistogramMergeIdentity(t *testing.T) {
	f := func(sa int64) bool {
		a := histFromSeed(sa, 256)
		zero := NewLevelHistogram(256)
		// Zero on either side leaves the histogram's mass, extremes and
		// width untouched.
		return histEqual(mergeHist(a, zero), a) && histEqual(mergeHist(zero, a), a)
	}
	cfg := &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(47))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestQuickLevelHistogramMergeStateRoundTrip(t *testing.T) {
	f := func(sa, sb int64) bool {
		m := mergeHist(histFromSeed(sa, 256), histFromSeed(sb, 256))
		back := LevelHistogramFromState(m.State())
		return histEqual(back, m) &&
			reflect.DeepEqual(back.Profile(), m.Profile()) &&
			back.Width() == m.Width()
	}
	cfg := &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(53))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestQuickLevelHistogramMergeEqualsDirect: merging two histograms equals
// one histogram fed both observation streams — the exactness the shard
// merger needs, stronger than the algebraic laws above.
func TestQuickLevelHistogramMergeEqualsDirect(t *testing.T) {
	f := func(sa, sb int64) bool {
		rngA := rand.New(rand.NewSource(sa))
		rngB := rand.New(rand.NewSource(sb))
		partA := NewLevelHistogram(64)
		partB := NewLevelHistogram(64)
		whole := NewLevelHistogram(64)
		for i, rng := range []*rand.Rand{rngA, rngB} {
			part := partA
			if i == 1 {
				part = partB
			}
			n := rng.Intn(64)
			for j := 0; j < n; j++ {
				level := rng.Int63n(1 << uint(4+rng.Intn(16)))
				c := uint64(1 + rng.Intn(5))
				part.Add(level, c)
				whole.Add(level, c)
			}
		}
		return histEqual(mergeHist(partA, partB), whole)
	}
	cfg := &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(59))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// distFromSeed builds a deterministic distribution. Values are bounded
// integers, so the float64 running sum stays exact (every partial sum is an
// integer far below 2^53) and merge order cannot perturb it.
func distFromSeed(seed int64) LogDist {
	rng := rand.New(rand.NewSource(seed))
	var d LogDist
	n := rng.Intn(64)
	for i := 0; i < n; i++ {
		d.Add(rng.Int63n(1 << 20))
	}
	return d
}

func mergeDist(a, b LogDist) LogDist {
	a.Merge(&b)
	return a
}

// distState reads the state of a by-value distribution (State has a
// pointer receiver; the parameter makes the value addressable).
func distState(d LogDist) LogDistState { return d.State() }

func TestQuickLogDistMergeCommutative(t *testing.T) {
	f := func(sa, sb int64) bool {
		a, b := distFromSeed(sa), distFromSeed(sb)
		return reflect.DeepEqual(distState(mergeDist(a, b)), distState(mergeDist(b, a)))
	}
	cfg := &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(61))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestQuickLogDistMergeAssociative(t *testing.T) {
	f := func(sa, sb, sc int64) bool {
		a, b, c := distFromSeed(sa), distFromSeed(sb), distFromSeed(sc)
		left := mergeDist(mergeDist(a, b), c)
		right := mergeDist(a, mergeDist(b, c))
		return reflect.DeepEqual(distState(left), distState(right))
	}
	cfg := &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(67))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestQuickLogDistMergeIdentity(t *testing.T) {
	f := func(sa int64) bool {
		a := distFromSeed(sa)
		var zero LogDist
		return reflect.DeepEqual(distState(mergeDist(a, zero)), distState(a)) &&
			reflect.DeepEqual(distState(mergeDist(zero, a)), distState(a))
	}
	cfg := &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(71))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestQuickLogDistMergeStateRoundTrip(t *testing.T) {
	f := func(sa, sb int64) bool {
		m := mergeDist(distFromSeed(sa), distFromSeed(sb))
		back := LogDistFromState(distState(m))
		return reflect.DeepEqual(distState(back), distState(m)) && back.Mean() == m.Mean()
	}
	cfg := &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(73))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// divHist is LevelHistogram's bucketing written with divisions, as it was
// before buckets were indexed by a shift: the reference
// TestQuickLevelHistogramShift holds the shift to.
type divHist struct {
	counts     []uint64
	width      int64
	maxBuckets int
	total      uint64
	maxLevel   int64
	haveLevel  bool
}

func (h *divHist) add(level int64, n uint64) {
	for level/h.width >= int64(h.maxBuckets) {
		h.rescale()
	}
	idx := level / h.width
	if int(idx) >= len(h.counts) {
		h.counts = append(h.counts, make([]uint64, int(idx)+1-len(h.counts))...)
	}
	h.counts[idx] += n
	h.total += n
	if !h.haveLevel || level > h.maxLevel {
		h.maxLevel, h.haveLevel = level, true
	}
}

func (h *divHist) rescale() {
	half := (len(h.counts) + 1) / 2
	for i := 0; i < half; i++ {
		v := h.counts[2*i]
		if 2*i+1 < len(h.counts) {
			v += h.counts[2*i+1]
		}
		h.counts[i] = v
	}
	h.counts = h.counts[:half]
	h.width *= 2
}

func (h *divHist) merge(o *divHist) {
	for h.width < o.width {
		h.rescale()
	}
	for i, c := range o.counts {
		if c != 0 {
			h.add(int64(i)*o.width, c)
		}
	}
	if o.haveLevel && (!h.haveLevel || o.maxLevel > h.maxLevel) {
		h.maxLevel, h.haveLevel = o.maxLevel, true
	}
}

func (h *divHist) state() LevelHistogramState {
	return LevelHistogramState{Counts: append([]uint64(nil), h.counts...), Width: h.width,
		MaxBuckets: h.maxBuckets, Total: h.total, MaxLevel: h.maxLevel, HaveLevel: h.haveLevel}
}

// TestQuickLevelHistogramShift: a histogram indexed by a shift holds the
// state of one indexed by division after every Add, through every
// rescale, after a Merge either way round, and after a state round trip
// followed by more adds — so the shift stays log2 of the width wherever a
// width comes from.
func TestQuickLevelHistogramShift(t *testing.T) {
	f := func(seed int64, capSel uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		maxBuckets := 2 + int(capSel)%64
		feed := func(h *LevelHistogram, ref *divHist) bool {
			for n := rng.Intn(48); n > 0; n-- {
				level := rng.Int63n(1 << uint(1+rng.Intn(24)))
				c := uint64(1 + rng.Intn(3))
				h.Add(level, c)
				ref.add(level, c)
				if !reflect.DeepEqual(h.State(), ref.state()) {
					return false
				}
			}
			return true
		}
		a, b := NewLevelHistogram(maxBuckets), NewLevelHistogram(maxBuckets)
		ra := &divHist{width: 1, maxBuckets: bucketCap(maxBuckets)}
		rb := &divHist{width: 1, maxBuckets: bucketCap(maxBuckets)}
		if !feed(a, ra) || !feed(b, rb) {
			return false
		}
		ab, ba := mergeHist(a, b), mergeHist(b, a)
		rab, rba := *ra, *rb
		rab.counts, rba.counts = slices.Clone(ra.counts), slices.Clone(rb.counts)
		rab.merge(rb)
		rba.merge(ra)
		if !reflect.DeepEqual(ab.State(), rab.state()) || !reflect.DeepEqual(ba.State(), rba.state()) {
			return false
		}
		back := LevelHistogramFromState(ab.State())
		return feed(back, &rab)
	}
	cfg := &quick.Config{MaxCount: 500, Rand: rand.New(rand.NewSource(61))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}
