// Package trace defines the canonical dynamic-instruction event produced by
// the CPU simulator and consumed by the Paragraph analyzer, together with a
// compact binary file format for storing traces.
//
// The paper captured serial execution traces of SPEC binaries with Pixie, a
// basic-block execution profiler for DECstation workstations. A Pixie trace
// is, in essence, the sequence of executed instructions together with the
// data addresses they touch; this package is our equivalent of that trace
// stream. Events carry everything the dependency analysis needs: the decoded
// instruction (hence operation class and register operands), the effective
// memory address and size for loads and stores, the memory segment the
// address falls in (the analyzer's renaming switches distinguish stack from
// non-stack memory), and branch outcomes.
package trace

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"paragraph/internal/isa"
)

// Segment classifies a memory address by the region of the address space it
// falls in. The paper's renaming switches treat the stack segment separately
// from other ("data") memory, because stack extents are procedure-scoped and
// therefore easy to rename.
type Segment uint8

const (
	SegNone  Segment = iota // no memory access
	SegData                 // static data segment (and anything unclassified)
	SegHeap                 // dynamically allocated memory (sbrk)
	SegStack                // the stack segment
)

func (s Segment) String() string {
	switch s {
	case SegNone:
		return "none"
	case SegData:
		return "data"
	case SegHeap:
		return "heap"
	case SegStack:
		return "stack"
	}
	return fmt.Sprintf("segment(%d)", uint8(s))
}

// Event is one dynamically executed instruction.
type Event struct {
	PC      uint32          // address of the instruction
	Ins     isa.Instruction // the decoded instruction
	MemAddr uint32          // effective address (loads/stores), else 0
	MemSize uint8           // bytes accessed (loads/stores), else 0
	Seg     Segment         // segment of MemAddr
	Taken   bool            // branch/jump outcome
}

// IsSyscall reports whether the event is a system call.
func (e *Event) IsSyscall() bool { return e.Ins.Op == isa.SYSCALL || e.Ins.Op == isa.BREAK }

// Sink consumes a stream of events, one Event call per instruction.
//
// The *Event is valid only for the duration of the call: producers reuse
// its storage for the next event (the CPU owns one Event it refills every
// step; replay copies into one variable per call), which is what keeps
// event delivery free of per-instruction heap allocation. A sink that keeps
// an event past the call must copy *e; retaining the pointer sees it
// overwritten. Returning an error stops the producer at that event.
type Sink interface {
	Event(e *Event) error
}

// SinkFunc adapts a function to the Sink interface.
type SinkFunc func(e *Event) error

// Event implements Sink.
func (f SinkFunc) Event(e *Event) error { return f(e) }

// Tee returns a Sink that forwards each event to every sink in order,
// stopping at the first error. A single sink is returned as it is, so a
// one-sink tee costs no call per event.
func Tee(sinks ...Sink) Sink {
	if len(sinks) == 1 {
		return sinks[0]
	}
	return SinkFunc(func(e *Event) error {
		for _, s := range sinks {
			if err := s.Event(e); err != nil {
				return err
			}
		}
		return nil
	})
}

// Counter is a Sink that counts events; useful for trace-length accounting.
type Counter struct {
	N uint64
}

// Event implements Sink.
func (c *Counter) Event(*Event) error { c.N++; return nil }

// File format v1:
//
//	magic "PGTRACE1" (8 bytes)
//	then per event:
//	  flags byte: bit0 mem access present, bit1 taken, bits 2-3 segment,
//	              bit4 PC is delta+4 from previous (the common case,
//	              encoded with zero extra bytes)
//	  if bit4 clear: uvarint PC
//	  uvarint instruction word
//	  if bit0: uvarint MemAddr, byte MemSize
//
// The format favours sequential code: straight-line execution costs one flag
// byte plus the instruction word per event.
//
// Format v2 ("PGTRACE2") keeps the per-event encoding but frames events
// into checksummed chunks; see format2.go.

var magic = [8]byte{'P', 'G', 'T', 'R', 'A', 'C', 'E', '1'}

const (
	flagMem      = 1 << 0
	flagTaken    = 1 << 1
	flagSegShift = 2
	flagSeqPC    = 1 << 4
)

// Writer streams events to an io.Writer in the binary trace format. It
// implements Sink. Call Flush (or Close if the underlying writer should be
// closed) when done.
//
// NewWriter produces format v2 (chunked, checksummed); NewWriterV1 keeps
// the legacy unframed stream for tools that need byte-compatible output.
type Writer struct {
	bw      *bufio.Writer
	closer  io.Closer
	version int
	lastPC  uint32
	first   bool
	n       uint64
	buf     [2 * binary.MaxVarintLen64]byte

	// v2 chunk state: events are encoded into chunk and framed with a
	// header (marker, sequence number, length, event count, CRC32) once
	// chunkTarget bytes accumulate.
	chunk       []byte
	chunkEvents uint32
	chunkTarget int
	seq         uint32
	hdr         [chunkHdrLen]byte
}

// WriterOptions configures NewWriterOpts.
type WriterOptions struct {
	// Version selects the file format: 2 (default) or 1 (legacy
	// unframed stream without checksums).
	Version int
	// ChunkBytes is the approximate payload size of a v2 chunk before it
	// is framed and flushed; 0 selects DefaultChunkBytes. Ignored for v1.
	ChunkBytes int
}

// NewWriter creates a v2 (chunked, checksummed) trace writer and emits the
// file header. If w also implements io.Closer, Close will close it.
func NewWriter(w io.Writer) (*Writer, error) {
	return NewWriterOpts(w, WriterOptions{})
}

// NewWriterV1 creates a writer for the legacy v1 stream format.
func NewWriterV1(w io.Writer) (*Writer, error) {
	return NewWriterOpts(w, WriterOptions{Version: 1})
}

// NewWriterOpts creates a trace writer with explicit options.
func NewWriterOpts(w io.Writer, o WriterOptions) (*Writer, error) {
	version := o.Version
	if version == 0 {
		version = 2
	}
	if version != 1 && version != 2 {
		return nil, fmt.Errorf("%w: cannot write version %d", ErrVersion, version)
	}
	bw := bufio.NewWriterSize(w, 1<<16)
	tw := &Writer{bw: bw, first: true, version: version}
	if c, ok := w.(io.Closer); ok {
		tw.closer = c
	}
	if version == 1 {
		if _, err := bw.Write(magic[:]); err != nil {
			return nil, err
		}
		return tw, nil
	}
	target := o.ChunkBytes
	if target <= 0 {
		target = DefaultChunkBytes
	}
	if target > maxChunkPayload-64 {
		target = maxChunkPayload - 64
	}
	tw.chunkTarget = target
	tw.chunk = make([]byte, 0, target+64)
	if _, err := bw.Write(magic2[:]); err != nil {
		return nil, err
	}
	return tw, nil
}

// Event implements Sink.
func (w *Writer) Event(e *Event) error {
	var flags byte
	seq := !w.first && e.PC == w.lastPC+4
	if seq {
		flags |= flagSeqPC
	}
	if e.MemSize > 0 {
		flags |= flagMem
	}
	if e.Taken {
		flags |= flagTaken
	}
	flags |= byte(e.Seg) << flagSegShift

	word, err := isa.Encode(&e.Ins)
	if err != nil {
		return fmt.Errorf("trace: event %d: %w", w.n, err)
	}

	buf := w.buf[:0]
	buf = append(buf, flags)
	if !seq {
		buf = binary.AppendUvarint(buf, uint64(e.PC))
	}
	buf = binary.AppendUvarint(buf, uint64(word))
	if e.MemSize > 0 {
		buf = binary.AppendUvarint(buf, uint64(e.MemAddr))
		buf = append(buf, e.MemSize)
	}
	if w.version == 2 {
		w.chunk = append(w.chunk, buf...)
		w.chunkEvents++
		w.lastPC = e.PC
		w.first = false
		w.n++
		if len(w.chunk) >= w.chunkTarget {
			return w.flushChunk()
		}
		return nil
	}
	if _, err := w.bw.Write(buf); err != nil {
		return err
	}
	w.lastPC = e.PC
	w.first = false
	w.n++
	return nil
}

// Count returns the number of events written so far.
func (w *Writer) Count() uint64 { return w.n }

// Version returns the file format version being written (1 or 2).
func (w *Writer) Version() int { return w.version }

// Flush frames any buffered chunk and writes all buffered data to the
// underlying writer. The resulting file is complete and readable; further
// events may still be appended.
func (w *Writer) Flush() error {
	if w.version == 2 {
		if err := w.flushChunk(); err != nil {
			return err
		}
	}
	return w.bw.Flush()
}

// Close flushes and, if the underlying writer is an io.Closer, closes it.
func (w *Writer) Close() error {
	if err := w.Flush(); err != nil {
		return err
	}
	if w.closer != nil {
		return w.closer.Close()
	}
	return nil
}

// Reader reads a trace written by Writer. It transparently handles both
// format versions: v1 streams decode exactly as before, v2 chunked traces
// are CRC-verified chunk by chunk.
//
// Bytes come from one of two sources behind window and discard: a
// bufio.Reader over a stream, or a whole trace already in memory (see
// zerocopy.go). The decoder, the chunk loader and the resync scan are the
// same code for both.
type Reader struct {
	br      *bufio.Reader
	rerr    error // the stream's first read error or EOF; see window
	version int
	lastPC  uint32
	first   bool
	n       uint64

	// The event decoder's window: a v2 chunk's payload, or the bytes of a
	// v1 stream under the cursor.
	payload []byte
	pos     int

	// v2 state (see format2.go).
	degraded bool
	off      int64 // byte offset of the next unconsumed byte
	chunkIdx int
	aligned  bool   // positioned at a trusted chunk boundary
	rem      uint32 // events remaining in the current chunk per its header
	lastSeq  uint32
	haveSeq  bool
	stats    ReadStats

	// In-memory source (see zerocopy.go): when data is non-nil the whole v2
	// trace is in memory, off doubles as the cursor into it, dataEnd bounds
	// the readable region (a section reader stops short of len(data)), and
	// payload aliases data instead of being copied.
	data    []byte
	dataEnd int64

	// decoded memoizes isa.Decode per PC (see decode).
	decoded [decodeSlots]decodedIns
}

// window returns the next n bytes of input without consuming them, or
// fewer together with the error that cut the input short: io.EOF at its
// end, or the stream's read error. An in-memory trace's window is a slice
// of it; a stream's is bufio's buffer, valid until the next window or
// discard. A stream's first error sticks, so the bytes buffered before it
// still decode and the error surfaces where the stream broke, whether or
// not a later read would succeed.
func (r *Reader) window(n int) ([]byte, error) {
	if r.data != nil {
		if rest := r.data[r.off:r.dataEnd]; len(rest) < n {
			return rest, io.EOF
		}
		return r.data[r.off : r.off+int64(n)], nil
	}
	if r.rerr != nil && n > r.br.Buffered() {
		w, _ := r.br.Peek(r.br.Buffered()) // buffered bytes peek without a read
		return w, r.rerr
	}
	w, err := r.br.Peek(n)
	if err != nil {
		r.rerr = err
	}
	return w, err
}

// discard consumes n bytes of the last window.
func (r *Reader) discard(n int) {
	if r.data == nil {
		r.br.Discard(n) // cannot fail: the window holds the n bytes
	}
	r.off += int64(n)
}

// decodeSlots is the size of a Reader's decoded-instruction table, indexed
// by PC>>2. A program whose executed text spans fewer than decodeSlots
// words never evicts a slot, so it misses only on each instruction's first
// use; the ten analogues execute 148-1018 distinct PCs.
const decodeSlots = 1024

// decodedIns is one slot of the decoded-instruction table. ok marks a
// filled slot: a zero-valued slot must not pass for word 0, which decodes
// to NOP, not to the zero Instruction.
type decodedIns struct {
	word uint32
	ok   bool
	ins  isa.Instruction
}

// decode returns isa.Decode(word) for the instruction at pc, consulting the
// slot for pc first. The slot is tagged by the word, so a PC that carries a
// different word than last time decodes again; a decode error is never
// stored, so an undecodable word fails every time it is read. The result
// points into the table and is valid until the next decode.
func (r *Reader) decode(pc, word uint32) (*isa.Instruction, error) {
	s := &r.decoded[pc>>2%decodeSlots]
	if s.ok && s.word == word {
		return &s.ins, nil
	}
	ins, err := isa.Decode(word)
	if err != nil {
		return nil, err
	}
	*s = decodedIns{word: word, ok: true, ins: ins}
	return &s.ins, nil
}

// set fills e from a decoded PC, instruction and flags byte, with no memory
// access. It stores field by field: building the Event as one composite
// literal assembles it on the stack and copies it, which a CPU profile
// showed as the costliest line of a table-hit decode.
func (e *Event) set(pc uint32, ins *isa.Instruction, flags byte) {
	e.PC = pc
	e.Ins = *ins
	e.MemAddr = 0
	e.MemSize = 0
	e.Seg = Segment(flags >> flagSegShift & 0x3)
	e.Taken = flags&flagTaken != 0
}

// narrow converts a decoded uvarint to the 32 bits the format stores for a
// PC, instruction word or address, rejecting wider values instead of
// truncating them.
func narrow(v uint64, what string) (uint32, error) {
	if v > math.MaxUint32 {
		return 0, fmt.Errorf("%s %#x overflows 32 bits", what, v)
	}
	return uint32(v), nil
}

// ReaderOptions configures NewReaderOpts.
type ReaderOptions struct {
	// Degraded turns on graceful degradation for v2 traces: instead of
	// failing fast with a CorruptChunkError, the reader skips damaged
	// chunks, resynchronizes at the next valid chunk boundary, and
	// accounts for the loss in Stats. It has no effect on v1 traces,
	// which have no redundancy to recover with.
	Degraded bool
	// StartSeq seeds the duplicate-chunk detector for a reader that begins
	// mid-file, as per-shard readers do: chunks with seq <= StartSeq are
	// dropped as duplicates, exactly as if one reader had already consumed
	// the preceding portion of the trace. Only meaningful for v2 traces and
	// only honored when StartSeqValid is set.
	StartSeq uint32
	// StartSeqValid marks StartSeq as meaningful (sequence numbers start
	// at 0, so a zero value alone cannot express "no predecessor").
	StartSeqValid bool
}

// ReadStats accounts for what a degraded-mode reader skipped.
type ReadStats struct {
	// Chunks is the number of valid chunks delivered.
	Chunks int
	// SkippedChunks counts chunks dropped because of corruption.
	SkippedChunks int
	// SkippedEvents is the best-effort count of events lost with those
	// chunks, from the chunk headers where they were readable.
	SkippedEvents uint64
	// DuplicateChunks counts chunks dropped because their sequence
	// number had already been delivered (replayed writes).
	DuplicateChunks int
	// ResyncBytes is the number of bytes scanned past while hunting for
	// the next chunk boundary.
	ResyncBytes int64
}

// NewReader validates the header and returns a fail-fast reader positioned
// at the first event.
func NewReader(r io.Reader) (*Reader, error) {
	return NewReaderOpts(r, ReaderOptions{})
}

// NewReaderOpts validates the header and returns a reader with explicit
// options.
func NewReaderOpts(r io.Reader, o ReaderOptions) (*Reader, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	var got [8]byte
	if _, err := io.ReadFull(br, got[:]); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return nil, fmt.Errorf("trace: reading magic: %w", ErrTruncated)
		}
		return nil, fmt.Errorf("trace: reading magic: %w", err)
	}
	switch {
	case got == magic:
		return &Reader{br: br, first: true, version: 1, degraded: o.Degraded}, nil
	case got == magic2:
		// Chunk validation peeks whole chunks before consuming them, so
		// the buffer must hold the largest legal chunk.
		big := bufio.NewReaderSize(br, maxChunkPayload+2*chunkHdrLen)
		return &Reader{
			br: big, version: 2, degraded: o.Degraded,
			off: int64(len(magic2)), aligned: true,
			lastSeq: o.StartSeq, haveSeq: o.StartSeqValid,
		}, nil
	case bytes.Equal(got[:7], magic[:7]):
		return nil, fmt.Errorf("%w: version byte %q", ErrVersion, got[7])
	default:
		return nil, ErrBadMagic
	}
}

// Version returns the detected file format version (1 or 2).
func (r *Reader) Version() int { return r.version }

// Stats returns what has been skipped so far; only a degraded-mode reader
// over a damaged v2 trace accumulates anything.
func (r *Reader) Stats() ReadStats { return r.stats }

// maxEventBytes bounds one encoded event: the flags byte, three 10-byte
// uvarints (PC, instruction word, address) and the size byte. A v1 window
// this wide holds every byte the decoder can look at, so only the end of
// the input can cut an event short and an over-wide field still fails as
// one.
const maxEventBytes = 1 + 3*binary.MaxVarintLen64 + 1

// Next decodes the next event into e. It returns io.EOF at the clean end of
// the trace.
func (r *Reader) Next(e *Event) error {
	if r.version == 2 {
		return r.nextV2(e)
	}
	win, err := r.window(maxEventBytes)
	if len(win) == 0 {
		if err == io.EOF {
			return io.EOF
		}
		return fmt.Errorf("trace: event %d: %w", r.n, err)
	}
	r.payload, r.pos = win, 0
	if err := r.decodePayloadEvent(e, wrapTruncation(err)); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	r.discard(r.pos)
	r.n++
	return nil
}

// decodePayloadEvent decodes one event from the window r.payload at r.pos:
// a v2 chunk's payload, or a v1 stream's next maxEventBytes. short is the
// error for an event that runs past the end of the window.
func (r *Reader) decodePayloadEvent(e *Event, short error) error {
	p := r.payload
	flags := p[r.pos]
	r.pos++
	pc := r.lastPC + 4
	if flags&flagSeqPC == 0 {
		v, n := binary.Uvarint(p[r.pos:])
		if n <= 0 {
			return r.fieldError("PC", n, short)
		}
		r.pos += n
		var err error
		if pc, err = narrow(v, "PC"); err != nil {
			return fmt.Errorf("event %d: %w", r.n, err)
		}
	} else if r.first {
		return fmt.Errorf("event %d: sequential-PC flag on first event", r.n)
	}
	wordV, n := binary.Uvarint(p[r.pos:])
	if n <= 0 {
		return r.fieldError("instruction", n, short)
	}
	r.pos += n
	word, err := narrow(wordV, "instruction word")
	if err != nil {
		return fmt.Errorf("event %d: %w", r.n, err)
	}
	ins, err := r.decode(pc, word)
	if err != nil {
		return fmt.Errorf("event %d: %w", r.n, err)
	}
	e.set(pc, ins, flags)
	if flags&flagMem != 0 {
		addr, n := binary.Uvarint(p[r.pos:])
		if n <= 0 {
			return r.fieldError("address", n, short)
		}
		r.pos += n
		if e.MemAddr, err = narrow(addr, "address"); err != nil {
			return fmt.Errorf("event %d: %w", r.n, err)
		}
		if r.pos >= len(p) {
			return r.fieldError("size", 0, short)
		}
		e.MemSize = p[r.pos]
		r.pos++
	}
	r.lastPC = pc
	r.first = false
	return nil
}

// fieldError reports a field the decoder could not read: cut off by the
// end of the window (n == 0), or a uvarint longer than 64 bits (n < 0).
func (r *Reader) fieldError(what string, n int, short error) error {
	if n < 0 {
		return fmt.Errorf("event %d: reading %s: uvarint overflows 64 bits", r.n, what)
	}
	return fmt.Errorf("event %d: reading %s: %w", r.n, what, short)
}

// wrapTruncation maps the end of the input to ErrTruncated, so callers
// can tell a torn tail from a failed read.
func wrapTruncation(err error) error {
	if err == io.EOF || err == io.ErrUnexpectedEOF {
		return ErrTruncated
	}
	return err
}

// ForEach reads every remaining event, invoking fn for each. It stops early
// if fn returns an error, and returns nil at a clean end of trace.
func (r *Reader) ForEach(fn func(e *Event) error) error {
	var e Event
	for {
		err := r.Next(&e)
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		if err := fn(&e); err != nil {
			return err
		}
	}
}
