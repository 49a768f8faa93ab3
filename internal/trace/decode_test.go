package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"strings"
	"testing"

	"paragraph/internal/isa"
)

// rawEvent encodes one event the way Writer does, but from raw field
// values, so a test can write what Writer never would: varints wider than
// 32 bits and undecodable instruction words. addr < 0 means no memory
// access. The PC is always explicit.
func rawEvent(pc, word uint64, addr int64) []byte {
	var flags byte
	if addr >= 0 {
		flags |= flagMem
	}
	b := []byte{flags}
	b = binary.AppendUvarint(b, pc)
	b = binary.AppendUvarint(b, word)
	if addr >= 0 {
		b = binary.AppendUvarint(b, uint64(addr))
		b = append(b, 4)
	}
	return b
}

// rawV1 frames raw events as a v1 trace.
func rawV1(events ...[]byte) []byte {
	return append(append([]byte(nil), magic[:]...), bytes.Join(events, nil)...)
}

// rawV2 frames each group of raw events as one CRC-valid v2 chunk.
func rawV2(chunks ...[][]byte) []byte {
	out := append([]byte(nil), magic2[:]...)
	for seq, events := range chunks {
		payload := bytes.Join(events, nil)
		hdr := make([]byte, chunkHdrLen)
		copy(hdr, chunkMarker[:])
		binary.LittleEndian.PutUint32(hdr[4:], uint32(seq))
		binary.LittleEndian.PutUint32(hdr[8:], uint32(len(payload)))
		binary.LittleEndian.PutUint32(hdr[12:], uint32(len(events)))
		binary.LittleEndian.PutUint32(hdr[16:], chunkCRC(hdr, payload))
		out = append(append(out, hdr...), payload...)
	}
	return out
}

const (
	textPC = 0x400000
	addiW  = 0x21090005 // addi $t1, $t0, 5
	lwW    = 0x8d090000 // lw $t1, 0($t0)
	badW   = 0xfc000000 // opcode 63: no such instruction
)

// overwideTraces holds one event per 32-bit field with that field's
// varint one bit too wide, then one per field with bit 62 or 63 set (a 9-
// or 10-byte varint), each behind one good event and framed both as a v1
// and as a v2 trace, in a fixed order for the fuzz seeds. A reader that
// narrowed without a check would decode each to the field's low 32 bits:
// the word 1<<32 as a NOP. A v1 reader whose window were narrower than
// the widest event would report the 9-byte address as truncated instead.
func overwideTraces() (names []string, traces [][]byte) {
	good := rawEvent(textPC, addiW, -1)
	for _, c := range []struct {
		field string
		event []byte
	}{
		{"pc", rawEvent(1<<40|textPC, addiW, -1)},
		{"word", rawEvent(textPC, 1<<32, -1)},
		{"address", rawEvent(textPC, lwW, 1<<32|0x10000000)},
		{"pc-bit63", rawEvent(1<<63|textPC, addiW, -1)},
		{"word-bit63", rawEvent(textPC, 1<<63|addiW, -1)},
		{"address-bit62", rawEvent(textPC, lwW, 1<<62|0x10000000)},
	} {
		names = append(names, "v1-"+c.field, "v2-"+c.field)
		traces = append(traces, rawV1(good, c.event), rawV2([][]byte{good, c.event}))
	}
	return names, traces
}

// TestOverwideVarintRejected: a PC, instruction word or address wider
// than 32 bits is a decode error in every reader, never a silently
// truncated event. Inside a CRC-valid v2 chunk it is a chunk error like
// any other: fail-fast readers report a CorruptChunkError, degraded ones
// drop the rest of the chunk.
func TestOverwideVarintRejected(t *testing.T) {
	if _, err := isa.Decode(addiW); err != nil {
		t.Fatal(err)
	}
	names, traces := overwideTraces()
	for i, data := range traces {
		t.Run(names[i], func(t *testing.T) {
			for _, degraded := range []bool{false, true} {
				opts := ReaderOptions{Degraded: degraded}
				readers := map[string]func() (*Reader, error){
					"bufio": func() (*Reader, error) { return NewReaderOpts(bytes.NewReader(data), opts) },
					"bytes": func() (*Reader, error) { return NewBytesReader(data, opts) },
				}
				for kind, open := range readers {
					r, err := open()
					if err != nil {
						t.Fatal(err)
					}
					events, err := readAll(r)
					if len(events) != 1 {
						t.Fatalf("%s degraded=%v: delivered %d events, want only the good one", kind, degraded, len(events))
					}
					if r.Version() == 2 && degraded {
						if err != io.EOF || r.Stats().SkippedChunks != 1 {
							t.Fatalf("%s: degraded read ended with %v, stats %+v; want the chunk skipped", kind, err, r.Stats())
						}
						continue
					}
					if err == nil || err == io.EOF || !strings.Contains(err.Error(), "overflows 32 bits") {
						t.Fatalf("%s degraded=%v: got %v, want an overflow error", kind, degraded, err)
					}
					var cce *CorruptChunkError
					if errors.As(err, &cce) != (r.Version() == 2) {
						t.Fatalf("%s: %v: CorruptChunkError only and always for v2", kind, err)
					}
				}
			}
		})
	}
}

// TestDecodeTableTagMiss: one PC carrying different words in turn (code
// rewritten in place, or a table slot shared by two PCs) decodes each word
// afresh, because a slot hits only for the word it was filled with.
func TestDecodeTableTagMiss(t *testing.T) {
	words := []uint32{addiW, lwW, addiW, 0, 0x01095021, addiW} // addi, lw, addi, nop, addu, addi
	var events [][]byte
	for i, w := range words {
		addr := int64(-1)
		if w == lwW {
			addr = 0x10000000
		}
		pc := uint64(textPC)
		if i%2 == 1 {
			pc += decodeSlots * 4 // a different PC on the same slot
		}
		events = append(events, rawEvent(pc, uint64(w), addr))
	}
	for name, data := range map[string][]byte{"v1": rawV1(events...), "v2": rawV2(events)} {
		r, err := NewReader(bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		got, err := readAll(r)
		if err != io.EOF || len(got) != len(words) {
			t.Fatalf("%s: read %d events, ended with %v", name, len(got), err)
		}
		for i, w := range words {
			want, err := isa.Decode(w)
			if err != nil {
				t.Fatal(err)
			}
			if got[i].Ins != want {
				t.Errorf("%s: event %d decoded to %+v, want %+v", name, i, got[i].Ins, want)
			}
		}
	}
}

// TestDecodeTableErrorsNotStored: an undecodable word at a PC whose slot
// already hit fails, and fails again every time it recurs; the good word
// it displaced still decodes in between.
func TestDecodeTableErrorsNotStored(t *testing.T) {
	if _, err := isa.Decode(badW); err == nil {
		t.Fatalf("word %#x decodes; the test needs an undecodable one", badW)
	}
	good := rawEvent(textPC, addiW, -1)
	bad := rawEvent(textPC, badW, -1)
	const chunks = 3
	var groups [][][]byte
	for i := 0; i < chunks; i++ {
		groups = append(groups, [][]byte{good, good, bad})
	}
	data := rawV2(groups...)
	for _, bytesMode := range []bool{false, true} {
		opts := ReaderOptions{Degraded: true}
		r, err := NewReaderOpts(bytes.NewReader(data), opts)
		if bytesMode {
			r, err = NewBytesReader(data, opts)
		}
		if err != nil {
			t.Fatal(err)
		}
		got, err := readAll(r)
		if err != io.EOF || len(got) != 2*chunks || r.Stats().SkippedChunks != chunks {
			t.Fatalf("bytes=%v: %d events, end %v, stats %+v; want %d events and every chunk's bad word rejected",
				bytesMode, len(got), err, r.Stats(), 2*chunks)
		}
	}
	// Fail-fast: the first bad word stops the reader with the decoder's
	// error, after the two good events.
	r, err := NewReader(bytes.NewReader(rawV1(good, good, bad, good)))
	if err != nil {
		t.Fatal(err)
	}
	got, err := readAll(r)
	if len(got) != 2 || err == nil || err == io.EOF || !strings.Contains(err.Error(), "isa: unknown opcode") {
		t.Fatalf("v1: %d events, end %v; want 2 and an unknown-opcode error", len(got), err)
	}
}
