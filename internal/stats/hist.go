// Package stats provides the statistics containers used by the Paragraph
// analyzer and its experiment harness: a parallelism-profile histogram that
// automatically coarsens its bucket width as the DDG deepens (the paper's
// "when the range of Ldest becomes too large ... a range of Ldest values is
// mapped to each distribution entry"), logarithmically bucketed
// distributions for value lifetimes and sharing degrees, and small helpers
// for rendering tables, CSV series and ASCII plots.
package stats

import (
	"fmt"
	"math"
	"math/bits"
)

// DefaultMaxBuckets is the profile resolution used when none is specified.
// 1<<16 buckets keep profiles of multi-million-level DDGs under a megabyte.
const DefaultMaxBuckets = 1 << 16

// LevelHistogram counts operations per DDG level. Levels are non-negative
// and unbounded; when the deepest level exceeds the bucket capacity, the
// bucket width doubles (existing counts are folded pairwise), so memory is
// bounded by maxBuckets regardless of critical-path length.
type LevelHistogram struct {
	counts []uint64
	width  int64 // levels per bucket, a power of two
	// shift is log2(width): a level's bucket is level>>shift, which spares
	// every Add the two int64 divisions level/width would cost.
	shift      uint
	maxBuckets int
	total      uint64
	maxLevel   int64
	haveLevel  bool
}

// NewLevelHistogram returns a histogram holding at most maxBuckets buckets;
// maxBuckets <= 0 selects DefaultMaxBuckets.
func NewLevelHistogram(maxBuckets int) *LevelHistogram {
	return &LevelHistogram{width: 1, maxBuckets: bucketCap(maxBuckets)}
}

// bucketCap is the bucket capacity a histogram asked for maxBuckets gets.
func bucketCap(maxBuckets int) int {
	if maxBuckets <= 0 {
		return DefaultMaxBuckets
	}
	return max(maxBuckets, 2)
}

// Add records n operations at the given level.
func (h *LevelHistogram) Add(level int64, n uint64) {
	if level < 0 {
		panic(fmt.Sprintf("stats: negative DDG level %d", level))
	}
	for level>>h.shift >= int64(h.maxBuckets) {
		h.rescale()
	}
	idx := level >> h.shift
	if int(idx) >= len(h.counts) {
		h.counts = append(h.counts, make([]uint64, int(idx)+1-len(h.counts))...)
	}
	h.counts[idx] += n
	h.total += n
	if !h.haveLevel || level > h.maxLevel {
		h.maxLevel = level
		h.haveLevel = true
	}
}

// rescale doubles the bucket width, folding counts pairwise.
func (h *LevelHistogram) rescale() {
	half := (len(h.counts) + 1) / 2
	for i := 0; i < half; i++ {
		var v uint64
		v = h.counts[2*i]
		if 2*i+1 < len(h.counts) {
			v += h.counts[2*i+1]
		}
		h.counts[i] = v
	}
	h.counts = h.counts[:half]
	h.width *= 2
	h.shift++
}

// Total returns the number of operations recorded.
func (h *LevelHistogram) Total() uint64 { return h.total }

// MaxLevel returns the deepest level recorded and whether any level has
// been recorded at all.
func (h *LevelHistogram) MaxLevel() (int64, bool) { return h.maxLevel, h.haveLevel }

// Width returns the current bucket width in levels.
func (h *LevelHistogram) Width() int64 { return h.width }

// NumBuckets returns the number of populated buckets.
func (h *LevelHistogram) NumBuckets() int { return len(h.counts) }

// ProfilePoint is one point of a parallelism profile: the first level of the
// bucket and the average number of operations per level within it.
type ProfilePoint struct {
	Level int64
	Ops   float64
}

// Profile returns the parallelism profile as (level, average ops per level)
// points, one per bucket. The final bucket's average uses only the levels up
// to the deepest recorded level, so sparse tails are not diluted.
func (h *LevelHistogram) Profile() []ProfilePoint {
	out := make([]ProfilePoint, len(h.counts))
	for i, c := range h.counts {
		start := int64(i) * h.width
		span := h.width
		if i == len(h.counts)-1 && h.haveLevel {
			span = h.maxLevel - start + 1
			if span <= 0 || span > h.width {
				span = h.width
			}
		}
		out[i] = ProfilePoint{Level: start, Ops: float64(c) / float64(span)}
	}
	return out
}

// Clone returns an independent deep copy of the histogram. Used for
// analysis checkpoints.
func (h *LevelHistogram) Clone() *LevelHistogram {
	c := *h
	c.counts = append([]uint64(nil), h.counts...)
	return &c
}

// LevelHistogramState is the exported snapshot of a LevelHistogram, used to
// persist analysis checkpoints. It round-trips exactly through
// LevelHistogramFromState.
type LevelHistogramState struct {
	Counts     []uint64
	Width      int64
	MaxBuckets int
	Total      uint64
	MaxLevel   int64
	HaveLevel  bool
}

// State snapshots the histogram.
func (h *LevelHistogram) State() LevelHistogramState {
	return LevelHistogramState{
		Counts:     append([]uint64(nil), h.counts...),
		Width:      h.width,
		MaxBuckets: h.maxBuckets,
		Total:      h.total,
		MaxLevel:   h.maxLevel,
		HaveLevel:  h.haveLevel,
	}
}

// Validate refuses a snapshot no histogram could have reached: a bucket
// width that is not a positive power of two, more buckets than its
// capacity, or a last bucket whose first level overflows int64. Merging
// such a state would coarsen forever or place counts at negative levels,
// so every reader of persisted states calls Validate first. A nil state,
// a collection that was off, is valid.
func (s *LevelHistogramState) Validate() error {
	if s == nil {
		return nil
	}
	if s.Width <= 0 || s.Width&(s.Width-1) != 0 {
		return fmt.Errorf("stats: histogram bucket width %d is not a positive power of two", s.Width)
	}
	n := len(s.Counts)
	if c := bucketCap(s.MaxBuckets); n > c {
		return fmt.Errorf("stats: histogram holds %d buckets, more than its capacity of %d", n, c)
	}
	if n > 1 && s.Width > math.MaxInt64/int64(n-1) {
		return fmt.Errorf("stats: histogram of %d buckets %d levels wide overflows the level range", n, s.Width)
	}
	return nil
}

// LevelHistogramFromState rebuilds a histogram from a snapshot that passes
// Validate, so its width is a power of two and the shift exact.
func LevelHistogramFromState(s LevelHistogramState) *LevelHistogram {
	h := NewLevelHistogram(s.MaxBuckets)
	h.counts = append([]uint64(nil), s.Counts...)
	if s.Width > 0 {
		h.width = s.Width
		h.shift = uint(bits.TrailingZeros64(uint64(s.Width)))
	}
	h.total = s.Total
	h.maxLevel = s.MaxLevel
	h.haveLevel = s.HaveLevel
	return h
}

// Merge adds all mass from other into h. Used to combine profiles of
// parallel shards.
//
// Power-of-two widths nest, so the receiver first coarsens until its width
// is at least other's; every source bucket then lands wholly inside one
// receiver bucket and the merged histogram has exactly the counts a single
// histogram fed all observations would have. Without the alignment, a
// coarse bucket re-added at its start level can land in a finer receiver
// bucket than the original observations occupied, making merge order
// visible. Given equal bucket capacities, merge is commutative and
// associative; the shard-result merger relies on that exactness.
func (h *LevelHistogram) Merge(other *LevelHistogram) {
	for h.width < other.width {
		h.rescale()
	}
	for i, c := range other.counts {
		if c == 0 {
			continue
		}
		h.Add(int64(i)*other.width, c)
	}
	if other.haveLevel && (!h.haveLevel || other.maxLevel > h.maxLevel) {
		h.maxLevel = other.maxLevel
		h.haveLevel = true
	}
}
