package trace

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
)

// Zero-copy v2 decoding. A Reader constructed over an in-memory trace — an
// mmap-ed file, or a whole file read into one slice — decodes chunks in
// place: the chunk header is parsed where it lies, the CRC runs over the
// mapped bytes, and r.payload aliases the region instead of being copied
// out of a bufio window. The decode state machine (nextV2,
// decodePayloadEvent), the degraded-mode skip/resync semantics, and every
// ReadStats counter are shared with the streaming reader; only the byte
// acquisition differs. The differential fuzzer FuzzReaderEquivalence holds
// the two implementations byte-for-byte accountable to each other.

// NewBytesReader returns a Reader decoding a complete in-memory trace in
// place. For v2 traces no payload bytes are ever copied: decoded events
// are produced directly out of data, so the caller must not mutate (or
// unmap) data until reading is done. Non-v2 inputs — v1 traces have no
// chunk framing to exploit — fall back to the streaming reader over a
// bytes.Reader, with identical error behavior.
func NewBytesReader(data []byte, o ReaderOptions) (*Reader, error) {
	if len(data) >= len(magic2) && bytes.Equal(data[:len(magic2)], magic2[:]) {
		return &Reader{
			version: 2, degraded: o.Degraded,
			data: data, dataEnd: int64(len(data)),
			off: int64(len(magic2)), aligned: true,
			lastSeq: o.StartSeq, haveSeq: o.StartSeqValid,
		}, nil
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
	if len(data) < len(magic2) || !bytes.Equal(data[:len(magic2)], magic2[:]) {
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

// loadChunkBytes is loadChunk for the zero-copy reader: it positions
// r.payload on the next valid chunk's payload without copying it. The
// control flow and every ReadStats-affecting decision mirror the streaming
// implementation exactly.
func (r *Reader) loadChunkBytes() error {
	for {
		rem := r.dataEnd - r.off
		if rem == 0 {
			return io.EOF
		}
		if rem < chunkHdrLen {
			// A torn tail shorter than one header. Nothing after it can
			// be recovered.
			if cerr := r.corrupt(ErrTruncated, 0); cerr != nil {
				return cerr
			}
			r.off = r.dataEnd
			return io.EOF
		}
		hdr := r.data[r.off : r.off+chunkHdrLen]
		if !bytes.Equal(hdr[0:4], chunkMarker[:]) {
			if cerr := r.corrupt(fmt.Errorf("invalid chunk marker % x", hdr[0:4]), headerEvents(hdr, r.aligned)); cerr != nil {
				return cerr
			}
			if err := r.resyncBytes(); err != nil {
				return err
			}
			continue
		}
		seq := binary.LittleEndian.Uint32(hdr[4:8])
		plen := int(binary.LittleEndian.Uint32(hdr[8:12]))
		events := binary.LittleEndian.Uint32(hdr[12:16])
		crc := binary.LittleEndian.Uint32(hdr[16:20])
		claimed := headerEvents(hdr, r.aligned)
		if plen > maxChunkPayload {
			if cerr := r.rejectOversize(plen, hdr); cerr != nil {
				return cerr
			}
			if err := r.resyncBytes(); err != nil {
				return err
			}
			continue
		}
		if rem < int64(chunkHdrLen+plen) {
			if cerr := r.corrupt(ErrTruncated, claimed); cerr != nil {
				return cerr
			}
			if rerr := r.resyncBytes(); rerr != nil {
				return rerr
			}
			continue
		}
		payload := r.data[r.off+chunkHdrLen : r.off+int64(chunkHdrLen+plen)]
		if chunkCRC(hdr, payload) != crc {
			if cerr := r.corrupt(ErrChecksum, claimed); cerr != nil {
				return cerr
			}
			if err := r.resyncBytes(); err != nil {
				return err
			}
			continue
		}

		// The chunk is intact: its payload is consumed in place.
		r.payload = payload
		r.off += int64(chunkHdrLen + plen)
		r.chunkIdx++
		r.aligned = true
		if r.haveSeq && seq <= r.lastSeq {
			// A replayed (duplicated) chunk: its events were already
			// delivered under this sequence number.
			r.stats.DuplicateChunks++
			r.payload = r.payload[:0]
			continue
		}
		r.lastSeq, r.haveSeq = seq, true
		r.pos = 0
		r.rem = events
		r.first = true
		r.stats.Chunks++
		if events == 0 && plen == 0 {
			continue
		}
		return nil
	}
}

// resyncBytes is resync for the zero-copy reader: skip at least one byte,
// then scan the remaining region for the next chunk marker, counting every
// byte passed over exactly as the streaming scan does.
func (r *Reader) resyncBytes() error {
	if r.off < r.dataEnd {
		r.off++
		r.stats.ResyncBytes++
	}
	rest := r.data[r.off:r.dataEnd]
	if i := bytes.Index(rest, chunkMarker[:]); i >= 0 {
		r.off += int64(i)
		r.stats.ResyncBytes += int64(i)
		return nil
	}
	r.stats.ResyncBytes += int64(len(rest))
	r.off = r.dataEnd
	return io.EOF
}
