package trace

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
)

// Format v2: chunked, checksummed framing.
//
//	magic "PGTRACE2" (8 bytes)
//	then chunks until EOF:
//	  marker  [4]byte  0xD7 'P' 'G' 0xC5   — resynchronization anchor
//	  seq     uint32 LE                    — chunk sequence number, from 0
//	  length  uint32 LE                    — payload bytes
//	  events  uint32 LE                    — events encoded in the payload
//	  crc32   uint32 LE                    — IEEE CRC of seq|length|events|payload
//	  payload [length]byte                 — v1 per-event encoding
//
// The per-event delta-PC state resets at every chunk boundary (the first
// event of a chunk always carries an explicit PC), so each chunk decodes
// independently: a reader can drop a damaged chunk, scan forward to the
// next marker, and continue with nothing lost but that chunk's events. The
// sequence number lets the reader reject replayed (duplicated) chunks and
// notice gaps after a resync.

var magic2 = [8]byte{'P', 'G', 'T', 'R', 'A', 'C', 'E', '2'}

// chunkMarker opens every chunk. The values are arbitrary but chosen to be
// rare in varint-heavy payload data.
var chunkMarker = [4]byte{0xD7, 'P', 'G', 0xC5}

const (
	// chunkHdrLen is the framed chunk header size: marker + seq + length
	// + events + crc32.
	chunkHdrLen = 20
	// DefaultChunkBytes is the target payload size of a chunk. Small
	// enough that one lost chunk costs a few thousand events, large
	// enough that framing overhead (20 bytes) is negligible.
	DefaultChunkBytes = 32 << 10
	// maxChunkPayload bounds a chunk payload; headers claiming more are
	// rejected as corrupt rather than trusted to allocate.
	maxChunkPayload = 1 << 20
)

// chunkCRC computes the checksum over the header's seq|length|events words
// followed by the payload.
func chunkCRC(hdr []byte, payload []byte) uint32 {
	crc := crc32.ChecksumIEEE(hdr[4:16])
	return crc32.Update(crc, crc32.IEEETable, payload)
}

// flushChunk frames and writes the buffered chunk, if any.
func (w *Writer) flushChunk() error {
	if w.chunkEvents == 0 {
		return nil
	}
	hdr := w.hdr[:]
	copy(hdr[0:4], chunkMarker[:])
	binary.LittleEndian.PutUint32(hdr[4:8], w.seq)
	binary.LittleEndian.PutUint32(hdr[8:12], uint32(len(w.chunk)))
	binary.LittleEndian.PutUint32(hdr[12:16], w.chunkEvents)
	binary.LittleEndian.PutUint32(hdr[16:20], chunkCRC(hdr, w.chunk))
	if _, err := w.bw.Write(hdr); err != nil {
		return err
	}
	if _, err := w.bw.Write(w.chunk); err != nil {
		return err
	}
	w.seq++
	w.chunk = w.chunk[:0]
	w.chunkEvents = 0
	// Each chunk must decode independently: restart the delta-PC state.
	w.first = true
	return nil
}

// nextV2 decodes the next event from the current chunk, pulling in (and
// verifying) the next chunk when the current one is exhausted.
func (r *Reader) nextV2(e *Event) error {
	for r.pos >= len(r.payload) {
		if r.rem != 0 {
			// The header promised more events than the payload held.
			// The CRC matched, so this is a writer bug, not bit rot,
			// but the chunk is untrustworthy either way.
			err := r.chunkError(fmt.Errorf("payload ended with %d events outstanding", r.rem))
			r.rem = 0
			if err != nil {
				return err
			}
			continue
		}
		if err := r.loadChunk(); err != nil {
			return err
		}
	}
	if r.rem == 0 {
		err := r.chunkError(fmt.Errorf("payload holds more events than its header claims"))
		r.pos = len(r.payload)
		if err != nil {
			return err
		}
		return r.nextV2(e)
	}
	if err := r.decodePayloadEvent(e, ErrTruncated); err != nil {
		// Decode errors inside a CRC-valid chunk: drop the remainder of
		// the chunk in degraded mode, fail fast otherwise.
		werr := r.chunkError(err)
		r.pos = len(r.payload)
		r.rem = 0
		if werr != nil {
			return werr
		}
		return r.nextV2(e)
	}
	r.rem--
	r.n++
	return nil
}

// loadChunk positions the reader on the next valid chunk's payload. It
// returns io.EOF at a clean end of trace, a *CorruptChunkError in fail-fast
// mode, or skips and resyncs in degraded mode. The bytes come through
// window, so a stream and an in-memory trace make the identical sequence
// of accept/skip/resync decisions for identical input bytes. A read error
// is not damage: it is returned in either mode, and no ReadStats field
// counts it.
func (r *Reader) loadChunk() error {
	for {
		hdr, err := r.window(chunkHdrLen)
		if len(hdr) < chunkHdrLen {
			if err := r.readError(err); err != nil {
				return err
			}
			if len(hdr) == 0 {
				return io.EOF
			}
			// A torn tail shorter than one header. Nothing after it can
			// be recovered.
			if cerr := r.corrupt(ErrTruncated, 0); cerr != nil {
				return cerr
			}
			r.discard(len(hdr))
			return io.EOF
		}
		seq := binary.LittleEndian.Uint32(hdr[4:8])
		plen := int(binary.LittleEndian.Uint32(hdr[8:12]))
		events := binary.LittleEndian.Uint32(hdr[12:16])
		crc := binary.LittleEndian.Uint32(hdr[16:20])
		// Capture the claimed event count now: the wider window below may
		// slide a stream's buffer, invalidating hdr.
		claimed := headerEvents(hdr, r.aligned)
		var full []byte
		var cause error
		switch {
		case !bytes.Equal(hdr[0:4], chunkMarker[:]):
			cause = fmt.Errorf("invalid chunk marker % x", hdr[0:4])
		case plen > maxChunkPayload:
			cause = fmt.Errorf("implausible payload length %d", plen)
		default:
			full, err = r.window(chunkHdrLen + plen)
			if len(full) < chunkHdrLen+plen {
				if err := r.readError(err); err != nil {
					return err
				}
				cause = ErrTruncated
			} else if chunkCRC(full[:chunkHdrLen], full[chunkHdrLen:]) != crc {
				cause = ErrChecksum
			}
		}
		if cause != nil {
			if cerr := r.corrupt(cause, claimed); cerr != nil {
				return cerr
			}
			if err := r.resync(); err != nil {
				return err
			}
			continue
		}

		// The chunk is intact: consume it. An in-memory payload is used
		// in place; a stream's is copied out of bufio's buffer, which the
		// discard recycles.
		if r.data != nil {
			r.payload = full[chunkHdrLen:]
		} else {
			r.payload = append(r.payload[:0], full[chunkHdrLen:]...)
		}
		r.discard(chunkHdrLen + plen)
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

// readError classifies the error that cut a window short. The end of the
// input (io.EOF, io.ErrUnexpectedEOF) yields nil, and the caller treats
// the short window as a truncated trace; any other error is returned
// wrapped.
func (r *Reader) readError(err error) error {
	if wrapTruncation(err) == ErrTruncated {
		return nil
	}
	return fmt.Errorf("trace: reading chunk %d at offset %d: %w", r.chunkIdx, r.off, err)
}

// headerEvents extracts the claimed event count from a chunk header, but
// only when the reader is at a trusted chunk boundary — after a resync the
// bytes under the cursor are not known to be a header at all.
func headerEvents(hdr []byte, aligned bool) uint32 {
	if !aligned || len(hdr) < 16 {
		return 0
	}
	return binary.LittleEndian.Uint32(hdr[12:16])
}

// corrupt handles a damaged chunk: in fail-fast mode it returns the
// structured error; in degraded mode it records the loss and returns nil so
// the caller can resync.
func (r *Reader) corrupt(cause error, events uint32) error {
	cerr := &CorruptChunkError{Chunk: r.chunkIdx, Offset: r.off, Events: events, Cause: cause}
	if !r.degraded {
		return cerr
	}
	r.stats.SkippedChunks++
	r.stats.SkippedEvents += uint64(events)
	r.chunkIdx++
	r.aligned = false
	return nil
}

// chunkError handles an inconsistency inside an already-CRC-verified chunk
// (event count or encoding disagrees with the header). Degraded mode drops
// the rest of the chunk; fail-fast mode surfaces it.
func (r *Reader) chunkError(cause error) error {
	if !r.degraded {
		return &CorruptChunkError{Chunk: r.chunkIdx - 1, Offset: r.off, Cause: cause}
	}
	r.stats.SkippedChunks++
	return nil
}

// resyncWindow is how many bytes resync searches at a time.
const resyncWindow = 4096

// resync scans forward for the next chunk marker, leaving the reader
// positioned on it (to be validated by loadChunk). It returns io.EOF when
// the rest of the input holds no marker.
func (r *Reader) resync() error {
	// Skip at least one byte so a damaged chunk whose marker survived
	// does not loop forever. A short window's error comes back from the
	// scan's first window.
	if w, _ := r.window(1); len(w) == 1 {
		r.skip(1)
	}
	for {
		buf, err := r.window(resyncWindow)
		if i := bytes.Index(buf, chunkMarker[:]); i >= 0 {
			r.skip(i)
			return nil
		}
		if len(buf) < resyncWindow {
			if err := r.readError(err); err != nil {
				return err
			}
			r.skip(len(buf))
			return io.EOF
		}
		// Keep the last marker-length-1 bytes: a marker may straddle
		// the window boundary.
		r.skip(len(buf) - (len(chunkMarker) - 1))
	}
}

// skip discards n bytes scanned past by resync.
func (r *Reader) skip(n int) {
	r.discard(n)
	r.stats.ResyncBytes += int64(n)
}

// ChunkInfo describes one chunk of a v2 trace, as found by ScanChunks.
type ChunkInfo struct {
	Offset  int64  // byte offset of the chunk's marker
	Seq     uint32 // header sequence number
	Payload int    // payload length in bytes
	Events  uint32 // header event count
	CRCOK   bool   // whether the checksum matches
}

// ScanChunks walks an in-memory v2 trace and reports its chunk layout.
// It trusts chunk lengths (it does not resync), so it is a tool for tests
// and fault injectors operating on well-formed traces, not a recovery path.
func ScanChunks(data []byte) ([]ChunkInfo, error) {
	if len(data) < len(magic2) || !bytes.Equal(data[:len(magic2)], magic2[:]) {
		return nil, fmt.Errorf("%w: not a v2 trace", ErrBadMagic)
	}
	var out []ChunkInfo
	off := len(magic2)
	for off < len(data) {
		if len(data)-off < chunkHdrLen {
			return out, fmt.Errorf("chunk %d at offset %d: %w", len(out), off, ErrTruncated)
		}
		hdr := data[off : off+chunkHdrLen]
		if !bytes.Equal(hdr[0:4], chunkMarker[:]) {
			return out, fmt.Errorf("chunk %d at offset %d: invalid marker", len(out), off)
		}
		plen := int(binary.LittleEndian.Uint32(hdr[8:12]))
		if len(data)-off-chunkHdrLen < plen {
			return out, fmt.Errorf("chunk %d at offset %d: %w", len(out), off, ErrTruncated)
		}
		payload := data[off+chunkHdrLen : off+chunkHdrLen+plen]
		out = append(out, ChunkInfo{
			Offset:  int64(off),
			Seq:     binary.LittleEndian.Uint32(hdr[4:8]),
			Payload: plen,
			Events:  binary.LittleEndian.Uint32(hdr[12:16]),
			CRCOK:   chunkCRC(hdr, payload) == binary.LittleEndian.Uint32(hdr[16:20]),
		})
		off += chunkHdrLen + plen
	}
	return out, nil
}
