package shard

import (
	"bytes"
	"encoding/gob"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"

	"paragraph/internal/core"
)

// File formats for distributed sharding: the plan travels as JSON (small,
// human-inspectable, diffable), shard results as gob behind a versioned
// magic (they embed histogram states and a checkpoint, where gob's exact
// float64 round-trip matters).

// WritePlan writes the plan as indented JSON.
func WritePlan(w io.Writer, p *Plan) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(p)
}

// ReadPlan reads a plan written by WritePlan.
func ReadPlan(r io.Reader) (*Plan, error) {
	var p Plan
	if err := json.NewDecoder(r).Decode(&p); err != nil {
		return nil, fmt.Errorf("shard: reading plan: %w", err)
	}
	return &p, nil
}

// SavePlan and LoadPlan are the file-path conveniences over
// WritePlan/ReadPlan.
func SavePlan(path string, p *Plan) error {
	var buf bytes.Buffer
	if err := WritePlan(&buf, p); err != nil {
		return err
	}
	return os.WriteFile(path, buf.Bytes(), 0o644)
}

// LoadPlan reads a plan file written by SavePlan.
func LoadPlan(path string) (*Plan, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadPlan(f)
}

// resultMagic versions the shard-result file format.
const resultMagic = "pgshard-result-v1\n"

// resultRecord is the gob payload of a shard-result file: the shard's
// Result plus, for every shard but the last, the outgoing analyzer state
// (core.WriteCheckpoint bytes) the next shard's process resumes from.
type resultRecord struct {
	Result     *Result
	Checkpoint []byte
}

// WriteResult writes one shard's result, and its outgoing checkpoint if
// any, to w.
func WriteResult(w io.Writer, res *Result, cp *core.Checkpoint) error {
	rec := resultRecord{Result: res}
	if cp != nil {
		var buf bytes.Buffer
		if err := core.WriteCheckpoint(&buf, cp); err != nil {
			return fmt.Errorf("shard %d: encoding checkpoint: %w", res.Index, err)
		}
		rec.Checkpoint = buf.Bytes()
	}
	if _, err := io.WriteString(w, resultMagic); err != nil {
		return err
	}
	if err := gob.NewEncoder(w).Encode(rec); err != nil {
		return fmt.Errorf("shard %d: encoding result: %w", res.Index, err)
	}
	return nil
}

// ReadResult reads a shard-result stream written by WriteResult. The
// returned checkpoint is nil when the file carries none (the last shard).
func ReadResult(r io.Reader) (*Result, *core.Checkpoint, error) {
	magic := make([]byte, len(resultMagic))
	if _, err := io.ReadFull(r, magic); err != nil {
		return nil, nil, fmt.Errorf("shard: reading result magic: %w", err)
	}
	if string(magic) != resultMagic {
		return nil, nil, fmt.Errorf("shard: not a shard-result file (magic %q)", magic)
	}
	var rec resultRecord
	if err := gob.NewDecoder(r).Decode(&rec); err != nil {
		return nil, nil, fmt.Errorf("shard: decoding result: %w", err)
	}
	if rec.Result == nil {
		return nil, nil, fmt.Errorf("shard: result file carries no result")
	}
	var cp *core.Checkpoint
	if len(rec.Checkpoint) > 0 {
		var err error
		cp, err = core.ReadCheckpoint(bytes.NewReader(rec.Checkpoint))
		if err != nil {
			return nil, nil, fmt.Errorf("shard %d: decoding checkpoint: %w", rec.Result.Index, err)
		}
	}
	return rec.Result, cp, nil
}

// SaveResult writes a shard-result file atomically: temp file, sync,
// rename — a crashed shard run never leaves a torn result for the next
// shard to resume from.
func SaveResult(path string, res *Result, cp *core.Checkpoint) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), ".pgshard-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if err := WriteResult(tmp, res, cp); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// LoadResult reads a shard-result file written by SaveResult.
func LoadResult(path string) (*Result, *core.Checkpoint, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	return ReadResult(f)
}

// deltaMagic versions the speculative shard-delta file format. It is
// distinct from resultMagic so pgshard merge can sniff which kind of
// per-shard file it was handed. v2 deltas carry policy-free records; a v1
// delta built under optimistic syscalls or perfect branches encoded those
// events as skip records, which gob would decode without complaint. v3
// packs the record stream and pending-read table as varints
// (core.ShardDelta.GobEncode). Older files are refused by name
// (ErrDeltaVersion).
const deltaMagic = "pgshard-delta-v3\n"

// retiredDeltaMagics are the formats ReadDelta refuses by name.
var retiredDeltaMagics = []string{"pgshard-delta-v1\n", "pgshard-delta-v2\n"}

// ErrDeltaVersion reports a shard-delta file written in a retired format;
// rebuild it with pgshard analyze -speculate.
var ErrDeltaVersion = errors.New("shard: retired shard-delta format")

// WriteDelta writes one shard's speculative delta to w.
func WriteDelta(w io.Writer, d *Delta) error {
	if _, err := io.WriteString(w, deltaMagic); err != nil {
		return err
	}
	if err := gob.NewEncoder(w).Encode(d); err != nil {
		return fmt.Errorf("shard %d: encoding delta: %w", d.Index, err)
	}
	return nil
}

// ReadDelta reads a shard-delta stream written by WriteDelta and validates
// the decoded record stream (core.ShardDelta.Validate), so a torn or
// hostile delta is refused here instead of failing — or silently
// misreporting — at splice time.
func ReadDelta(r io.Reader) (*Delta, error) {
	magic := make([]byte, len(deltaMagic))
	if _, err := io.ReadFull(r, magic); err != nil {
		return nil, fmt.Errorf("shard: reading delta magic: %w", err)
	}
	if string(magic) != deltaMagic {
		if slices.Contains(retiredDeltaMagics, string(magic)) {
			return nil, fmt.Errorf("%w %q: rebuild the shard", ErrDeltaVersion, magic[:len(magic)-1])
		}
		return nil, fmt.Errorf("shard: not a shard-delta file (magic %q)", magic)
	}
	var d Delta
	if err := gob.NewDecoder(r).Decode(&d); err != nil {
		return nil, fmt.Errorf("shard: decoding delta: %w", err)
	}
	if d.D == nil {
		return nil, fmt.Errorf("shard: delta file carries no record stream")
	}
	if err := d.D.Validate(); err != nil {
		return nil, fmt.Errorf("shard %d: %w", d.Index, err)
	}
	return &d, nil
}

// SaveDelta writes a shard-delta file atomically (temp, sync, rename),
// like SaveResult.
func SaveDelta(path string, d *Delta) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), ".pgshard-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if err := WriteDelta(tmp, d); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// LoadDelta reads a shard-delta file written by SaveDelta.
func LoadDelta(path string) (*Delta, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadDelta(f)
}
