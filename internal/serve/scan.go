package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sync"

	"paragraph/internal/shard"
	"paragraph/internal/trace"
)

// scanMemo keeps, per registered trace and read mode, the chunk scan of the
// content the trace's last planned job read: its accepted chunk spans and
// read accounting, keyed by the content's SHA-256, and never the trace
// bytes. A job over the same content hashes the bytes it read and groups
// the memoized spans for its own shard count instead of decoding the whole
// trace again; a job whose bytes hash differently (the file changed) scans
// them again and replaces the entry. Two jobs missing at once both scan;
// either result is the same.
type scanMemo struct {
	mu      sync.Mutex
	entries map[scanKey]*scanEntry
	scans   int // scans run, for tests
}

type scanKey struct {
	trace    string
	degraded bool
}

// scanEntry is plain data: nothing in it refers to the trace bytes.
type scanEntry struct {
	sum   [sha256.Size]byte
	spans []trace.ChunkSpan
	stats trace.ReadStats
}

// plan partitions data, the whole content of the registered trace, into at
// most n shards, scanning it only when the memo holds no scan of this
// content under this read mode. The plan records the content's hash.
func (m *scanMemo) plan(traceID string, data []byte, n int, degraded bool) (*shard.Plan, error) {
	sum := sha256.Sum256(data)
	key := scanKey{traceID, degraded}
	m.mu.Lock()
	e := m.entries[key]
	m.mu.Unlock()
	if e == nil || e.sum != sum {
		spans, rs, err := trace.ScanChunkSpans(data, degraded)
		if err != nil {
			return nil, fmt.Errorf("shard: scanning trace: %w", err)
		}
		e = &scanEntry{sum: sum, spans: spans, stats: rs}
		m.mu.Lock()
		if m.entries == nil {
			m.entries = make(map[scanKey]*scanEntry)
		}
		m.entries[key] = e
		m.scans++
		m.mu.Unlock()
	}
	plan, err := shard.Group(e.spans, e.stats, int64(len(data)), n, degraded)
	if err != nil {
		return nil, err
	}
	plan.TraceSHA256 = hex.EncodeToString(sum[:])
	return plan, nil
}
