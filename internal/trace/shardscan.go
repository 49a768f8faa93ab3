package trace

import (
	"bytes"
	"fmt"
	"io"
)

// Chunk-boundary scanning for sharded analysis. A v2 trace resets its
// delta-PC state at every chunk boundary, so any accepted chunk is a valid
// place to start decoding — the property the shard splitter builds on. The
// scanner here drives a real Reader over the trace, so its notion of which
// chunks are accepted, duplicated or skipped is the reader's own, not a
// reimplementation that could drift.

// HeaderBytes is the length of the file magic preceding the first chunk of
// a trace (both format versions use an 8-byte magic).
const HeaderBytes = 8

// ChunkSpan describes one accepted, event-delivering chunk of a v2 trace.
type ChunkSpan struct {
	// Start is the file offset of the chunk marker; End is one past the
	// chunk's payload. [Start, End) holds the whole chunk.
	Start int64
	End   int64
	// Seq is the chunk's sequence number, needed to seed the duplicate
	// detector of a reader that resumes after this chunk (StartSeq).
	Seq uint32
	// Events is the number of events the chunk actually delivers — which a
	// degraded reader may cut short of the header's claim for a CRC-valid
	// but internally inconsistent chunk.
	Events uint64
}

// ScanChunkSpans reads the v2 trace in data once and reports every accepted
// chunk that delivered at least one event, plus the ReadStats a full read
// accumulates. Degraded mode tolerates damage exactly as a degraded Reader
// does; fail-fast mode returns the first corruption as an error. Chunks
// that deliver no events (empty flush markers, duplicates, damage) never
// appear as spans — they belong to whatever shard contains their bytes.
func ScanChunkSpans(data []byte, degraded bool) ([]ChunkSpan, ReadStats, error) {
	// The scan drives the zero-copy reader: the trace is already in
	// memory, so planning decodes it in place without a bufio pass.
	r, err := NewBytesReader(data, ReaderOptions{Degraded: degraded})
	if err != nil {
		return nil, ReadStats{}, err
	}
	if r.version != 2 {
		return nil, ReadStats{}, fmt.Errorf("%w: chunk scanning requires a v2 trace", ErrVersion)
	}
	var spans []ChunkSpan
	prevOff := r.off
	var e Event
	for {
		if err := r.Next(&e); err != nil {
			if err == io.EOF {
				return spans, r.stats, nil
			}
			return nil, r.stats, err
		}
		if r.off != prevOff {
			// The delivering chunk was consumed whole when it was
			// accepted, so its extent is recoverable from the reader's
			// position and the payload it retained.
			start := r.off - int64(chunkHdrLen) - int64(len(r.payload))
			spans = append(spans, ChunkSpan{Start: start, End: r.off, Seq: r.lastSeq})
			prevOff = r.off
		}
		spans[len(spans)-1].Events++
	}
}

// NewSectionReader returns a Reader over the byte range [start, end) of a
// v2 trace, presented as if it were a complete trace file. It is how a
// shard runner decodes just its shard: start must be a chunk boundary (an
// accepted chunk's Start or End, as reported by ScanChunkSpans) for the
// section to decode; o.StartSeq should carry the Seq of the last chunk
// delivered before start so duplicate detection behaves as a single reader
// would.
func NewSectionReader(data []byte, start, end int64, o ReaderOptions) (*Reader, error) {
	if start < HeaderBytes || end < start || end > int64(len(data)) {
		return nil, fmt.Errorf("trace: bad section [%d, %d) of %d-byte trace", start, end, len(data))
	}
	rd := io.MultiReader(bytes.NewReader(magic2[:]), bytes.NewReader(data[start:end]))
	return NewReaderOpts(rd, o)
}
