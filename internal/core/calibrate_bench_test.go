package core

import (
	"runtime"
	"testing"

	"paragraph/internal/budget"
)

// BenchmarkLiveWellCalibration measures the real heap cost per live memory
// word against runtime.MemStats, the ground truth behind
// budget.LiveWellEntryBytes. A live word costs a 9 B slot of the
// resolver's word table (4 B key + 4 B slot id + 1 B occupancy), loaded
// between 3/8 and 3/4, plus a 24 B deltaSlot in the analyzer's growing slot
// slice, so the cost per entry swings with the table's load: ~40 B at
// maximum load (3/4, just before a doubling) and ~52 B at minimum load
// (3/8, just after one). The budgeted 56 B stays above both, so the
// governor never underestimates. If either measured metric drifts from
// the comment above (slot layout changed), recalibrate the constant.
//
//	go test ./internal/core -run xxx -bench LiveWellCalibration -benchtime 1x
func BenchmarkLiveWellCalibration(b *testing.B) {
	const maxLoadEntries = (1 << 20) * 3 / 4 // fills a 1<<20 table to its 3/4 threshold

	b.Run("max-load", func(b *testing.B) {
		calibrate(b, maxLoadEntries)
	})
	b.Run("post-grow", func(b *testing.B) {
		// One entry past the threshold doubles the table, leaving it 3/8
		// loaded; the rehash frees the old arrays.
		calibrate(b, maxLoadEntries+1)
	})
}

func calibrate(b *testing.B, entries int) {
	for i := 0; i < b.N; i++ {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)

		a := NewAnalyzer(Config{})
		for k := 0; k < entries; k++ {
			a.setSlot(uint32(k)*4|deltaMemLoc, valueState{Level: int64(k), LastUse: int64(k), Uses: 1})
		}

		runtime.GC()
		runtime.ReadMemStats(&after)
		perEntry := float64(after.HeapAlloc-before.HeapAlloc) / float64(entries)
		b.ReportMetric(perEntry, "bytes/entry")
		b.ReportMetric(float64(budget.LiveWellEntryBytes), "budgeted-bytes/entry")
		if a.curMem != entries {
			b.Fatalf("live well lost entries: %d != %d", a.curMem, entries)
		}
		runtime.KeepAlive(a)
	}
}
