package core

import (
	"runtime"
	"testing"

	"paragraph/internal/budget"
)

// BenchmarkLiveWellCalibration measures the real heap cost per live memory
// word against runtime.MemStats, the ground truth behind
// budget.LiveWellEntryBytes. A slot costs 29 B exactly (4 B key + 24 B
// value + 1 B occupancy), so steady-state cost per entry swings with load
// factor: ~38.7 B at maximum load (3/4, just before a doubling) up to
// ~77.3 B at minimum load (3/8, just after one). The budgeted constant is
// the expected cost at a random point of the growth cycle,
// 29/0.375*ln 2 ~= 54 B, rounded up — so the governor is honest on
// average and within 1.4x of the instantaneous truth everywhere. If either
// measured metric drifts from the comment above (slot layout changed),
// recalibrate the constant.
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

		t := &memTable[value]{}
		for k := 0; k < entries; k++ {
			t.put(uint32(k)*4, value{level: int64(k), lastUse: int64(k), uses: 1})
		}

		runtime.GC()
		runtime.ReadMemStats(&after)
		perEntry := float64(after.HeapAlloc-before.HeapAlloc) / float64(entries)
		b.ReportMetric(perEntry, "bytes/entry")
		b.ReportMetric(float64(budget.LiveWellEntryBytes), "budgeted-bytes/entry")
		if t.len() != entries {
			b.Fatalf("table lost entries: %d != %d", t.len(), entries)
		}
		runtime.KeepAlive(t)
	}
}
