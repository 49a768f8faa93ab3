package trace

import (
	"bytes"
	"fmt"
)

// Zero-copy v2 decoding. A Reader constructed over an in-memory trace — an
// mmap-ed file, or a whole file read into one slice — reads its windows
// (see Reader.window) as slices of the trace instead of out of a bufio
// buffer: the chunk header is parsed where it lies, the CRC runs over the
// mapped bytes, and the payload the decoder walks aliases the trace
// instead of being copied. Everything else — the chunk loader, the resync
// scan, the event decoder, the degraded-mode skip accounting — is the one
// implementation a stream reader runs too. The differential fuzzer
// FuzzReaderEquivalence holds the two byte sources byte-for-byte
// accountable to each other.

// NewBytesReader returns a Reader decoding a complete in-memory trace in
// place. For v2 traces no payload bytes are ever copied: decoded events
// are produced directly out of data, so the caller must not mutate (or
// unmap) data until reading is done. Non-v2 inputs — v1 traces have no
// chunk framing to exploit — fall back to the streaming reader over a
// bytes.Reader, with identical error behavior.
func NewBytesReader(data []byte, o ReaderOptions) (*Reader, error) {
	if bytes.HasPrefix(data, magic2[:]) {
		return NewBytesSectionReader(data, HeaderBytes, int64(len(data)), o)
	}
	return NewReaderOpts(bytes.NewReader(data), o)
}

// NewBytesSectionReader returns a zero-copy Reader over the byte range
// [start, end) of a complete in-memory v2 trace: the in-place equivalent
// of NewSectionReader. start must be a chunk boundary (an accepted chunk's
// Start or End, as reported by ScanChunkSpans); o.StartSeq should carry
// the Seq of the last chunk delivered before start so duplicate detection
// behaves as a single reader would.
func NewBytesSectionReader(data []byte, start, end int64, o ReaderOptions) (*Reader, error) {
	if !bytes.HasPrefix(data, magic2[:]) {
		return nil, fmt.Errorf("%w: not a v2 trace", ErrBadMagic)
	}
	if start < HeaderBytes || end < start || end > int64(len(data)) {
		return nil, fmt.Errorf("trace: bad section [%d, %d) of %d-byte trace", start, end, len(data))
	}
	return &Reader{
		version: 2, degraded: o.Degraded,
		data: data, dataEnd: end,
		off: start, aligned: true,
		lastSeq: o.StartSeq, haveSeq: o.StartSeqValid,
	}, nil
}
