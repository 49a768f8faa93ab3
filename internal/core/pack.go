package core

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"
)

// Packed encodings of the bulk arrays in persisted artifacts: a shard
// delta's pending-read table and record stream, and a checkpoint's live
// memory words. Gob encodes such arrays element by element through
// reflection, which cost as much as building the delta or snapshotting the
// well; here they are plain varint runs, written by GobEncode methods so
// the artifacts' outer gob framing stays. Every decoder bounds each
// declared length by the bytes left before allocating for it, so a hostile
// length fails instead of allocating.

// unpacker reads varints from an untrusted byte slice. The first error
// sticks; later reads return zero values.
type unpacker struct {
	b   []byte
	err error
}

func (u *unpacker) fail(format string, args ...any) {
	if u.err == nil {
		u.err = fmt.Errorf(format, args...)
	}
}

func (u *unpacker) uvarint() uint64 {
	if u.err != nil {
		return 0
	}
	v, n := binary.Uvarint(u.b)
	if n <= 0 {
		u.fail("truncated or oversized varint with %d bytes left", len(u.b))
		return 0
	}
	u.b = u.b[n:]
	return v
}

func (u *unpacker) varint() int64 {
	if u.err != nil {
		return 0
	}
	v, n := binary.Varint(u.b)
	if n <= 0 {
		u.fail("truncated or oversized varint with %d bytes left", len(u.b))
		return 0
	}
	u.b = u.b[n:]
	return v
}

func (u *unpacker) uint32() uint32 {
	v := u.uvarint()
	if v > math.MaxUint32 {
		u.fail("value %#x overflows 32 bits", v)
		return 0
	}
	return uint32(v)
}

// count reads a declared element count and refuses it unless the bytes
// left could hold that many elements of at least minBytes each.
func (u *unpacker) count(minBytes int) int {
	n := u.uvarint()
	if u.err == nil && n > uint64(len(u.b)/minBytes) {
		u.fail("declared length %d exceeds the %d bytes left", n, len(u.b))
	}
	if u.err != nil {
		return 0
	}
	return int(n)
}

// uint32s reads a length-prefixed run of uvarints of at most five bytes
// each: binary.Uvarint specialized to 32 bits over a local slice, since
// the bulk of a delta decodes here.
func (u *unpacker) uint32s() []uint32 {
	n := u.count(1)
	if u.err != nil {
		return nil
	}
	out := make([]uint32, n)
	b := u.b
	for i := range out {
		var v uint32
		for shift := 0; ; shift += 7 {
			if len(b) == 0 {
				u.fail("truncated varint in element %d of %d", i, n)
				return nil
			}
			c := b[0]
			b = b[1:]
			if shift == 28 && c > 0x0f {
				u.fail("element %d of %d overflows 32 bits", i, n)
				return nil
			}
			v |= uint32(c&0x7f) << shift
			if c < 0x80 {
				break
			}
		}
		out[i] = v
	}
	u.b = b
	return out
}

// finish reports the first error, or trailing bytes after a complete
// decode.
func (u *unpacker) finish() error {
	if u.err == nil && len(u.b) > 0 {
		u.fail("%d trailing bytes", len(u.b))
	}
	return u.err
}

// packedLen is the size of s's uvarints, without the length prefix.
func packedLen(s []uint32) int {
	n := 0
	for _, v := range s {
		n += (bits.Len32(v|1) + 6) / 7
	}
	return n
}

// appendUint32s appends a length-prefixed run of uvarints.
func appendUint32s(b []byte, s []uint32) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	for _, v := range s {
		for v >= 0x80 {
			b = append(b, byte(v)|0x80)
			v >>= 7
		}
		b = append(b, byte(v))
	}
	return b
}

// GobEncode packs the delta: its scalars, then Locs and Code as
// length-prefixed uvarint runs. A slot word takes one to three bytes and a
// record's first word four, where gob's integer encoding spends up to five.
func (d ShardDelta) GobEncode() ([]byte, error) {
	// Three scalars, 16 class counts and two length prefixes, then the
	// runs: one allocation of at most the encoded size plus 21 varints.
	b := make([]byte, 0, 21*binary.MaxVarintLen64+packedLen(d.Locs)+packedLen(d.Code))
	b = binary.AppendUvarint(b, d.StartEvent)
	b = binary.AppendUvarint(b, d.Events)
	b = binary.AppendUvarint(b, d.Syscalls)
	for _, n := range d.ClassCounts {
		b = binary.AppendUvarint(b, n)
	}
	b = appendUint32s(b, d.Locs)
	return appendUint32s(b, d.Code), nil
}

// GobDecode unpacks a delta written by GobEncode. It checks the encoding
// only; ShardDelta.Validate checks that the records are safe to splice.
func (d *ShardDelta) GobDecode(b []byte) error {
	u := unpacker{b: b}
	var nd ShardDelta
	nd.StartEvent = u.uvarint()
	nd.Events = u.uvarint()
	nd.Syscalls = u.uvarint()
	for c := range nd.ClassCounts {
		nd.ClassCounts[c] = u.uvarint()
	}
	nd.Locs = u.uint32s()
	nd.Code = u.uint32s()
	if err := u.finish(); err != nil {
		return fmt.Errorf("shard delta: %w", err)
	}
	*d = nd
	return nil
}

// memWords is a checkpoint's live memory, in ascending word order. It packs
// each entry as the uvarint gap from the previous word, the zigzag-coded
// level and last use, and the use count: at least four bytes per entry.
type memWords []memValueState

// sort orders the words by address in place, with a most-significant-digit
// radix sort on bytes of the word: a level counts its digits and swaps
// each entry straight into its digit's range, so it moves 32-byte entries
// a few times instead of a comparison sort's n log n times, and needs no
// second array. A level is skipped when every word has the same digit, as
// the high bytes of a program's nearby addresses do; a short range is left
// to slices.SortFunc. Live words are unique, so the order is the one any
// sort gives.
func (m memWords) sort() { m.sortDigit(24) }

func (m memWords) sortDigit(shift uint) {
	if len(m) <= 32 {
		slices.SortFunc(m, func(x, y memValueState) int { return cmp.Compare(x.Word, y.Word) })
		return
	}
	var count [256]int
	for i := range m {
		count[uint8(m[i].Word>>shift)]++
	}
	if count[uint8(m[0].Word>>shift)] < len(m) {
		// next[d] is the first position of digit d's range not yet holding
		// a digit-d entry; end[d] is the range's end.
		var next, end [256]int
		at := 0
		for d, n := range count {
			next[d] = at
			at += n
			end[d] = at
		}
		for d := range next {
			for next[d] < end[d] {
				e := m[next[d]]
				for b := uint8(e.Word >> shift); int(b) != d; b = uint8(e.Word >> shift) {
					m[next[b]], e = e, m[next[b]]
					next[b]++
				}
				m[next[d]] = e
				next[d]++
			}
		}
	}
	if shift == 0 {
		return
	}
	at := 0
	for _, n := range count {
		if n > 1 {
			m[at : at+n].sortDigit(shift - 8)
		}
		at += n
	}
}

// GobEncode packs the words, which must be strictly ascending.
func (m memWords) GobEncode() ([]byte, error) {
	b := make([]byte, 0, 8+8*len(m))
	b = binary.AppendUvarint(b, uint64(len(m)))
	var prev uint32
	for i, e := range m {
		if i > 0 && e.Word <= prev {
			return nil, errors.New("live memory words out of order")
		}
		b = binary.AppendUvarint(b, uint64(e.Word-prev))
		b = binary.AppendVarint(b, e.Val.Level)
		b = binary.AppendVarint(b, e.Val.LastUse)
		b = binary.AppendUvarint(b, uint64(e.Val.Uses))
		prev = e.Word
	}
	return b, nil
}

// GobDecode unpacks words written by GobEncode, refusing a list whose
// words are not strictly ascending.
func (m *memWords) GobDecode(b []byte) error {
	u := unpacker{b: b}
	n := u.count(4)
	out := make(memWords, n)
	var prev uint64
	for i := range out {
		gap := u.uvarint()
		switch {
		case u.err != nil:
		case i > 0 && gap == 0:
			u.fail("live memory word %d is not above its predecessor", i)
		case gap > math.MaxUint32-prev:
			u.fail("live memory word %d overflows 32 bits", i)
		}
		w := prev + gap
		out[i] = memValueState{Word: uint32(w), Val: valueState{
			Level:   u.varint(),
			LastUse: u.varint(),
			Uses:    u.uint32(),
		}}
		if u.err != nil {
			break
		}
		prev = w
	}
	if err := u.finish(); err != nil {
		return fmt.Errorf("live memory: %w", err)
	}
	*m = out
	return nil
}
