package core

import (
	"bufio"
	"bytes"
	"cmp"
	"encoding/gob"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"

	"paragraph/internal/budget"
	"paragraph/internal/isa"
	"paragraph/internal/stats"
)

// Checkpoint persistence: a Checkpoint can be written to disk and read back
// in a later process, so a killed analysis resumes from its last autosave
// instead of from the beginning of the trace.
//
// The encoding is a short magic header followed by a gob stream of exported
// mirror structs (gob cannot see unexported fields); the live memory words,
// the bulk of a large checkpoint, are packed as varints (memWords) inside
// that stream. Everything the analyzer tracks round-trips exactly — gob
// preserves float64 bits, so even the LogDist running sums are reproduced
// bit-for-bit. The one deliberate omission is the death schedule: it can
// rival the live well in size, and it is a pure function of the trace, so
// ResumeTwoPass recomputes it with a fresh discovery pass when the
// persisted analysis had one.
//
// Saves are crash-safe: SaveCheckpoint writes to a temporary file in the
// destination directory and renames it into place, so a crash mid-write
// leaves the previous checkpoint intact and a reader never observes a
// half-written file.

// checkpointMagic identifies and versions the on-disk format. v2 replaced
// the live-well and FU-schedule maps with sorted slices: gob writes map
// entries in iteration order, so v1 files were semantically stable but not
// byte-reproducible — two saves of the same state could differ. Fleet-mode
// pgserved asserts byte equality of persisted shard files across machines,
// which needs encoding determinism, not just value equality. v3 packs the
// live memory words (memWords). Earlier formats are refused by name: an
// autosave written by an older build cannot be resumed, so the run starts
// over.
const checkpointMagic = "paragraph-checkpoint-v3\n"

// retiredCheckpointMagics are the formats ReadCheckpoint refuses by name.
var retiredCheckpointMagics = []string{"paragraph-checkpoint-v1\n", "paragraph-checkpoint-v2\n"}

// valueState mirrors the live well's value record.
type valueState struct {
	Level   int64
	LastUse int64
	Uses    uint32
}

// memValueState is one live memory word, keyed for the sorted slice below.
type memValueState struct {
	Word uint32
	Val  valueState
}

// wellState mirrors liveWell. Mem is sorted by word address so the encoding
// is deterministic.
type wellState struct {
	Regs     [isa.NumRegs]valueState
	RegLive  [isa.NumRegs]bool
	Mem      memWords
	PreLevel int64
}

// fuCountState is one level's in-flight operation count.
type fuCountState struct {
	Level int64
	N     int
}

// fuState mirrors fuSchedule. Counts is sorted by level for the same
// determinism reason as wellState.Mem.
type fuState struct {
	Units  int
	Counts []fuCountState
	Floor  int64
}

// predState mirrors predictor.
type predState struct {
	Policy      BranchPolicy
	Counters    []uint8
	Mask        uint32
	Branches    uint64
	Mispredicts uint64
}

// checkpointState is the complete exported mirror of a Checkpoint. Window
// state is persisted compacted (the consumed head prefix dropped).
type checkpointState struct {
	EventOffset      uint64
	HasDeathSchedule bool

	Config       Config
	HighestLevel int64
	Deepest      int64
	AnyOps       bool

	Profile   *stats.LevelHistogramState
	Lifetimes stats.LogDistState
	Sharing   stats.LogDistState
	Storage   *stats.LevelHistogramState

	WindowSeqs   []uint64
	WindowLevels []int64

	FU   *fuState
	Pred *predState

	GovernorStats *budget.GovernorStats

	Well wellState

	Instructions uint64
	Ops          uint64
	Syscalls     uint64
	ClassCounts  [16]uint64
	MaxLiveMem   int
}

// state snapshots the checkpoint's analyzer into the exported mirror.
func (cp *Checkpoint) state() *checkpointState {
	a := cp.a
	st := &checkpointState{
		EventOffset:      cp.EventOffset,
		HasDeathSchedule: a.deaths != nil,
		Config:           a.cfg.Clone(),
		HighestLevel:     a.highestLevel,
		Deepest:          a.deepest,
		AnyOps:           a.anyOps,
		Lifetimes:        a.lifetimes.State(),
		Sharing:          a.sharing.State(),
		Instructions:     a.instructions,
		Ops:              a.ops,
		Syscalls:         a.syscalls,
		ClassCounts:      a.classCounts,
		MaxLiveMem:       a.maxLiveMem,
	}
	if a.profile != nil {
		s := a.profile.State()
		st.Profile = &s
	}
	if a.storage != nil {
		s := a.storage.State()
		st.Storage = &s
	}
	st.WindowSeqs = make([]uint64, 0, a.window.count())
	st.WindowLevels = make([]int64, 0, a.window.count())
	if n := len(a.window.buf); n > 0 {
		mask := uint64(n - 1)
		for k := a.window.head; k < a.window.tail; k++ {
			e := &a.window.buf[k&mask]
			st.WindowSeqs = append(st.WindowSeqs, e.seq)
			st.WindowLevels = append(st.WindowLevels, e.level)
		}
	}
	if a.fu != nil {
		counts := make([]fuCountState, 0, len(a.fu.counts))
		for k, v := range a.fu.counts {
			counts = append(counts, fuCountState{Level: k, N: v})
		}
		slices.SortFunc(counts, func(x, y fuCountState) int { return cmp.Compare(x.Level, y.Level) })
		st.FU = &fuState{Units: a.fu.units, Counts: counts, Floor: a.fu.floor}
	}
	if a.pred != nil {
		st.Pred = &predState{
			Policy:      a.pred.policy,
			Counters:    append([]uint8(nil), a.pred.counters...),
			Mask:        a.pred.mask,
			Branches:    a.pred.branches,
			Mispredicts: a.pred.mispredicts,
		}
	}
	if a.gov != nil {
		s := a.gov.Stats()
		st.GovernorStats = &s
	}
	st.Well = wellStateOf(a.well)
	return st
}

// wellStateOf snapshots the live well.
func wellStateOf(w *liveWell) wellState {
	ws := wellState{
		RegLive:  w.regLive,
		Mem:      make(memWords, 0, w.mem.len()),
		PreLevel: w.preLevel,
	}
	for i, v := range w.regs {
		ws.Regs[i] = valueState{Level: v.level, LastUse: v.lastUse, Uses: v.uses}
	}
	w.mem.forEach(func(word uint32, v value) {
		ws.Mem = append(ws.Mem, memValueState{Word: word, Val: valueState{Level: v.level, LastUse: v.lastUse, Uses: v.uses}})
	})
	slices.SortFunc(ws.Mem, func(x, y memValueState) int { return cmp.Compare(x.Word, y.Word) })
	return ws
}

// restore rebuilds a Checkpoint (including its analyzer) from the mirror.
func (st *checkpointState) restore() (*Checkpoint, error) {
	a := &Analyzer{
		cfg:          st.Config.Clone(),
		well:         newLiveWell(),
		highestLevel: st.HighestLevel,
		deepest:      st.Deepest,
		anyOps:       st.AnyOps,
		lifetimes:    stats.LogDistFromState(st.Lifetimes),
		sharing:      stats.LogDistFromState(st.Sharing),
		instructions: st.Instructions,
		ops:          st.Ops,
		syscalls:     st.Syscalls,
		classCounts:  st.ClassCounts,
		maxLiveMem:   st.MaxLiveMem,
	}
	for _, h := range []*stats.LevelHistogramState{st.Profile, st.Storage} {
		if err := h.Validate(); err != nil {
			return nil, fmt.Errorf("core: corrupt checkpoint: %w", err)
		}
	}
	if st.Profile != nil {
		a.profile = stats.LevelHistogramFromState(*st.Profile)
	}
	if st.Storage != nil {
		a.storage = stats.LevelHistogramFromState(*st.Storage)
	}
	if len(st.WindowSeqs) != len(st.WindowLevels) {
		return nil, fmt.Errorf("core: corrupt checkpoint: window seqs/levels length mismatch (%d vs %d)",
			len(st.WindowSeqs), len(st.WindowLevels))
	}
	a.window = windowState{}
	for i := range st.WindowSeqs {
		a.window.push(st.WindowSeqs[i], st.WindowLevels[i])
	}
	// The schedule and predictor must have the shape NewAnalyzer gives
	// the config: a hostile unit count would stall placement forever, and
	// a counter table that disagrees with its mask would index past it.
	if (st.FU != nil) != (a.cfg.FunctionalUnits > 0) || st.FU != nil && st.FU.Units != a.cfg.FunctionalUnits {
		return nil, fmt.Errorf("core: corrupt checkpoint: functional-unit schedule does not match the config's %d units",
			a.cfg.FunctionalUnits)
	}
	if (st.Pred != nil) != (a.cfg.Branches != BranchPerfect) || st.Pred != nil && st.Pred.Policy != a.cfg.Branches {
		return nil, fmt.Errorf("core: corrupt checkpoint: predictor does not match the config's %v branches", a.cfg.Branches)
	}
	if p := st.Pred; p != nil && p.Policy == BranchTwoBit {
		if n := len(p.Counters); n == 0 || n&(n-1) != 0 || p.Mask != uint32(n-1) {
			return nil, fmt.Errorf("core: corrupt checkpoint: %d predictor counters under mask %#x", n, p.Mask)
		}
	}
	if st.FU != nil {
		a.fu = newFUSchedule(st.FU.Units)
		for _, c := range st.FU.Counts {
			a.fu.counts[c.Level] = c.N
		}
		a.fu.floor = st.FU.Floor
	}
	if st.Pred != nil {
		a.pred = &predictor{
			policy:      st.Pred.Policy,
			counters:    append([]uint8(nil), st.Pred.Counters...),
			mask:        st.Pred.Mask,
			branches:    st.Pred.Branches,
			mispredicts: st.Pred.Mispredicts,
		}
	}
	if a.cfg.MemBudget > 0 {
		a.gov = budget.New(a.cfg.MemBudget, a.cfg.BudgetPolicy)
		if st.GovernorStats != nil {
			a.gov.RestoreStats(*st.GovernorStats)
		}
	}
	a.well.regLive = st.Well.RegLive
	a.well.preLevel = st.Well.PreLevel
	for i, v := range st.Well.Regs {
		a.well.regs[i] = value{level: v.Level, lastUse: v.LastUse, uses: v.Uses}
	}
	for _, m := range st.Well.Mem {
		a.well.mem.put(m.Word, value{level: m.Val.Level, lastUse: m.Val.LastUse, uses: m.Val.Uses})
	}
	return &Checkpoint{
		EventOffset: st.EventOffset,
		a:           a,
		needDeaths:  st.HasDeathSchedule,
	}, nil
}

// WriteCheckpoint serializes the checkpoint to w.
func WriteCheckpoint(w io.Writer, cp *Checkpoint) error {
	if _, err := io.WriteString(w, checkpointMagic); err != nil {
		return fmt.Errorf("core: write checkpoint: %w", err)
	}
	if err := gob.NewEncoder(w).Encode(cp.state()); err != nil {
		return fmt.Errorf("core: write checkpoint: %w", err)
	}
	return nil
}

// ReadCheckpoint deserializes a checkpoint written by WriteCheckpoint. The
// returned checkpoint resumes via ResumeTwoPass; if the original analysis
// used a death schedule, resumption re-runs the discovery pass first.
func ReadCheckpoint(r io.Reader) (*Checkpoint, error) {
	magic := make([]byte, len(checkpointMagic))
	if _, err := io.ReadFull(r, magic); err != nil {
		return nil, fmt.Errorf("core: read checkpoint: %w", err)
	}
	if !bytes.Equal(magic, []byte(checkpointMagic)) {
		if slices.Contains(retiredCheckpointMagics, string(magic)) {
			return nil, fmt.Errorf("core: read checkpoint: retired checkpoint format %q: restart the run", magic[:len(magic)-1])
		}
		return nil, fmt.Errorf("core: read checkpoint: bad magic %q", magic)
	}
	var st checkpointState
	if err := gob.NewDecoder(r).Decode(&st); err != nil {
		return nil, fmt.Errorf("core: read checkpoint: %w", err)
	}
	return st.restore()
}

// SaveCheckpoint atomically writes the checkpoint to path: the bytes land in
// a temporary file in the same directory, are synced, and are renamed into
// place, so a crash at any point leaves either the old file or the new one —
// never a torn write.
func SaveCheckpoint(path string, cp *Checkpoint) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return fmt.Errorf("core: save checkpoint: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	bw := bufio.NewWriter(tmp)
	if err := WriteCheckpoint(bw, cp); err != nil {
		tmp.Close()
		return err
	}
	if err := bw.Flush(); err != nil {
		tmp.Close()
		return fmt.Errorf("core: save checkpoint: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("core: save checkpoint: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("core: save checkpoint: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("core: save checkpoint: %w", err)
	}
	return nil
}

// LoadCheckpoint reads a checkpoint saved by SaveCheckpoint.
func LoadCheckpoint(path string) (*Checkpoint, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("core: load checkpoint: %w", err)
	}
	defer f.Close()
	return ReadCheckpoint(bufio.NewReader(f))
}
