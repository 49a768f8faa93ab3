package core

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"encoding/gob"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

// TestShardDeltaPackQuick: a shard delta survives its packed encoding, on
// its own and inside a gob stream, for arbitrary field values.
func TestShardDeltaPackQuick(t *testing.T) {
	roundTrip := func(d ShardDelta) bool {
		b, err := d.GobEncode()
		if err != nil {
			t.Log(err)
			return false
		}
		var got ShardDelta
		if err := got.GobDecode(b); err != nil {
			t.Log(err)
			return false
		}
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(&d); err != nil {
			t.Log(err)
			return false
		}
		var viaGob ShardDelta
		if err := gob.NewDecoder(&buf).Decode(&viaGob); err != nil {
			t.Log(err)
			return false
		}
		return sameDelta(&got, &d) && sameDelta(&viaGob, &d)
	}
	if err := quick.Check(roundTrip, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// sameDelta compares deltas treating nil and empty slices alike.
func sameDelta(a, b *ShardDelta) bool {
	return a.StartEvent == b.StartEvent && a.Events == b.Events && a.Syscalls == b.Syscalls &&
		a.ClassCounts == b.ClassCounts && slices.Equal(a.Locs, b.Locs) && slices.Equal(a.Code, b.Code)
}

// TestMemWordsPackQuick: any set of live memory words survives the packed
// word list, including words at both ends of the address space and
// negative levels.
func TestMemWordsPackQuick(t *testing.T) {
	roundTrip := func(live map[uint32]valueState, edges bool) bool {
		if edges {
			live[0] = valueState{Level: -1}
			live[^uint32(0)] = valueState{Level: 1 << 62, LastUse: -1 << 62, Uses: ^uint32(0)}
		}
		m := make(memWords, 0, len(live))
		for w, v := range live {
			m = append(m, memValueState{Word: w, Val: v})
		}
		slices.SortFunc(m, func(x, y memValueState) int { return cmp.Compare(x.Word, y.Word) })
		b, err := m.GobEncode()
		if err != nil {
			t.Log(err)
			return false
		}
		var got memWords
		if err := got.GobDecode(b); err != nil {
			t.Log(err)
			return false
		}
		return slices.Equal(got, m)
	}
	if err := quick.Check(roundTrip, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestMemWordsSortQuick: the checkpoint's radix sort orders live words
// exactly as slices.SortFunc by address does — for scattered words, for
// words clustered in a few pages, where digits shared by every word are
// skipped, and for sets small enough to skip the radix levels.
func TestMemWordsSortQuick(t *testing.T) {
	sorted := func(seed int64, n uint16, spread uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		mask := uint32(1)<<(spread%32+1) - 1
		base := rng.Uint32()
		seen := make(map[uint32]bool)
		var m memWords
		for i := 0; i < int(n%6000); i++ {
			w := base + rng.Uint32()&mask
			if !seen[w] {
				seen[w] = true
				m = append(m, memValueState{Word: w, Val: valueState{Level: int64(i), LastUse: -int64(i), Uses: w % 7}})
			}
		}
		want := slices.Clone(m)
		slices.SortFunc(want, func(x, y memValueState) int { return cmp.Compare(x.Word, y.Word) })
		m.sort()
		return slices.Equal(m, want)
	}
	if err := quick.Check(sorted, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestMemWordsRejectsDisorder: the word list is strictly ascending on
// both sides — the encoder refuses an unsorted or duplicated list, and the
// decoder refuses a repeated word and a word past 32 bits.
func TestMemWordsRejectsDisorder(t *testing.T) {
	for _, m := range []memWords{{{Word: 8}, {Word: 4}}, {{Word: 8}, {Word: 8}}} {
		if _, err := m.GobEncode(); err == nil {
			t.Errorf("words %v encoded", m)
		}
	}
	entry := func(b []byte, gap uint64) []byte {
		b = binary.AppendUvarint(b, gap)
		b = binary.AppendVarint(b, 3)
		b = binary.AppendVarint(b, 5)
		return binary.AppendUvarint(b, 1)
	}
	repeated := entry(entry(binary.AppendUvarint(nil, 2), 8), 0)
	overflow := entry(entry(binary.AppendUvarint(nil, 2), 1<<31), 1<<31)
	for name, b := range map[string][]byte{"repeated word": repeated, "word past 32 bits": overflow} {
		var m memWords
		if err := m.GobDecode(b); err == nil {
			t.Errorf("%s decoded: %v", name, m)
		}
	}
}

// TestPackedLengthBounded: a declared length larger than the bytes left
// fails before anything is allocated for it.
func TestPackedLengthBounded(t *testing.T) {
	const huge = 1 << 28 // 1 GiB of uint32s, 8 GiB of memory words
	// Three scalars and 16 class counts, all zero, then the Locs length.
	hostileDelta := make([]byte, 19)
	hostileDelta = binary.AppendUvarint(hostileDelta, huge)
	hostileDelta = append(hostileDelta, 1, 2, 3)
	hostileWords := binary.AppendUvarint(nil, huge)
	hostileWords = append(hostileWords, make([]byte, 64)...)

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	var d ShardDelta
	derr := d.GobDecode(hostileDelta)
	var m memWords
	merr := m.GobDecode(hostileWords)
	runtime.ReadMemStats(&after)
	if derr == nil || !strings.Contains(derr.Error(), "exceeds") {
		t.Errorf("oversized delta length: err = %v", derr)
	}
	if merr == nil || !strings.Contains(merr.Error(), "exceeds") {
		t.Errorf("oversized word-list length: err = %v", merr)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Errorf("refusing oversized lengths allocated %d bytes", grew)
	}
}

// checkpointSeeds snapshots real analyzer states, one per configuration of
// the delta matrix: profiles, windows, functional units, predictors,
// governors, lifetimes and sharing all carry state into the checkpoint.
func checkpointSeeds(t testing.TB) [][]byte {
	events := richTrace(rand.New(rand.NewSource(11)), 400)
	var seeds [][]byte
	for _, cfg := range deltaConfigs() {
		a := NewAnalyzer(cfg)
		for i := range events {
			if err := a.Event(&events[i]); err != nil {
				t.Fatal(err)
			}
		}
		var b bytes.Buffer
		if err := WriteCheckpoint(&b, a.Snapshot()); err != nil {
			t.Fatal(err)
		}
		seeds = append(seeds, b.Bytes())
	}
	return seeds
}

// TestCheckpointPrefixesFail: every proper prefix of a v3 checkpoint is
// refused with an error, never a panic, and the whole file reads back to a
// state that writes the same bytes again. The checkpoints cut are those
// with a window, functional units, a predictor and a governor.
func TestCheckpointPrefixesFail(t *testing.T) {
	seeds := checkpointSeeds(t)
	for _, i := range []int{2, 3, 4, 8} {
		full := seeds[i]
		cp, err := ReadCheckpoint(bytes.NewReader(full))
		if err != nil {
			t.Fatalf("seed %d: %v", i, err)
		}
		var again bytes.Buffer
		if err := WriteCheckpoint(&again, cp); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again.Bytes(), full) {
			t.Fatalf("seed %d: a read checkpoint writes different bytes", i)
		}
		for n := 0; n < len(full); n++ {
			if _, err := ReadCheckpoint(bytes.NewReader(full[:n])); err == nil {
				t.Fatalf("seed %d: %d-byte prefix of a %d-byte checkpoint accepted", i, n, len(full))
			}
		}
	}
}

// TestShardDeltaPrefixesFail: every proper prefix of a packed delta fails
// to decode.
func TestShardDeltaPrefixesFail(t *testing.T) {
	d := buildDelta(t, richTrace(rand.New(rand.NewSource(12)), 500), 0, 500)
	b, err := d.GobEncode()
	if err != nil {
		t.Fatal(err)
	}
	for n := 0; n < len(b); n++ {
		var got ShardDelta
		if err := got.GobDecode(b[:n]); err == nil {
			t.Fatalf("%d-byte prefix of a %d-byte delta decoded", n, len(b))
		}
	}
}

// TestCheckpointRetiredFormats: v1 and v2 checkpoints are refused by name.
func TestCheckpointRetiredFormats(t *testing.T) {
	body := checkpointSeeds(t)[1][len(checkpointMagic):]
	for _, old := range []string{"paragraph-checkpoint-v1", "paragraph-checkpoint-v2"} {
		_, err := ReadCheckpoint(bytes.NewReader(append([]byte(old+"\n"), body...)))
		if err == nil || !strings.Contains(err.Error(), old) || !strings.Contains(err.Error(), "retired") {
			t.Errorf("%s checkpoint: err = %v, want a refusal naming the format", old, err)
		}
	}
}

// TestCheckpointRefusesBadHistogram: a checkpoint whose profile could not
// have come from a histogram is refused, as ReadResult refuses such a
// shard result, before the restored analyzer can place anything into it.
func TestCheckpointRefusesBadHistogram(t *testing.T) {
	cfg := Dataflow(SyscallConservative)
	a := NewAnalyzer(cfg)
	for _, e := range richTrace(rand.New(rand.NewSource(17)), 100) {
		if err := a.Event(&e); err != nil {
			t.Fatal(err)
		}
	}
	st := a.Snapshot().state()
	st.Profile.Width = math.MaxInt64
	var b bytes.Buffer
	b.WriteString(checkpointMagic)
	if err := gob.NewEncoder(&b).Encode(st); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadCheckpoint(&b); err == nil || !strings.Contains(err.Error(), "power of two") {
		t.Fatalf("ReadCheckpoint = %v, want the bucket width refused", err)
	}
}

// FuzzReadCheckpoint feeds arbitrary bytes — v3 checkpoints of real
// analyzer states, their truncations, a retired v2 header, garbage —
// through ReadCheckpoint. It never panics, and an accepted checkpoint
// restores to an analyzer that re-encodes to a checkpoint that reads back
// and runs further events to a finish.
func FuzzReadCheckpoint(f *testing.F) {
	for _, seed := range checkpointSeeds(f) {
		f.Add(seed)
		f.Add(seed[:len(seed)/2])
	}
	f.Add([]byte(checkpointMagic))
	f.Add([]byte("paragraph-checkpoint-v2\n"))
	f.Add([]byte{})
	more := richTrace(rand.New(rand.NewSource(13)), 64)

	f.Fuzz(func(t *testing.T, data []byte) {
		cp, err := ReadCheckpoint(bytes.NewReader(data))
		if err != nil {
			return
		}
		a := cp.Restore()
		var b bytes.Buffer
		if err := WriteCheckpoint(&b, a.Snapshot()); err != nil {
			t.Fatalf("restored checkpoint does not re-encode: %v", err)
		}
		if _, err := ReadCheckpoint(&b); err != nil {
			t.Fatalf("re-encoded checkpoint does not read back: %v", err)
		}
		for i := range more {
			if a.Event(&more[i]) != nil {
				return
			}
		}
		_, _ = a.Finish()
	})
}
