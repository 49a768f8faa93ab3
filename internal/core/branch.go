package core

import (
	"paragraph/internal/isa"
	"paragraph/internal/trace"
)

// BranchPolicy models control dependencies. The paper's headline analysis
// assumes perfect control flow ("the window size is the same size as the
// trace (no control dependencies)"), but Section 3.2 notes that "the
// firewall can also be used to represent the effect of a mispredicted
// conditional branch, resulting in all operations after the conditional
// branch being placed into the DDG with a control dependency to the
// firewall". These policies implement that mechanism with a family of
// predictors, bounding how much of the dataflow parallelism real control
// speculation could reach.
type BranchPolicy uint8

const (
	// BranchPerfect assumes an oracle: branches never constrain
	// placement. This is the paper's default.
	BranchPerfect BranchPolicy = iota
	// BranchStall treats every conditional branch as unpredicted: a
	// firewall follows each one, so no later operation may be placed
	// above the branch's resolution. The no-speculation lower bound.
	BranchStall
	// BranchStatic predicts backward branches taken and forward
	// branches not taken (BTFN), firewalling mispredictions.
	BranchStatic
	// BranchTwoBit uses a table of two-bit saturating counters indexed
	// by branch PC, firewalling mispredictions.
	BranchTwoBit
)

func (p BranchPolicy) String() string {
	switch p {
	case BranchPerfect:
		return "perfect"
	case BranchStall:
		return "stall"
	case BranchStatic:
		return "static-btfn"
	case BranchTwoBit:
		return "two-bit"
	}
	return "branch-policy?"
}

// ParseBranchPolicy maps the CLI spellings, and String's, to a policy.
func ParseBranchPolicy(s string) (BranchPolicy, bool) {
	switch s {
	case "perfect":
		return BranchPerfect, true
	case "stall":
		return BranchStall, true
	case "static", "btfn", "static-btfn":
		return BranchStatic, true
	case "twobit", "2bit", "two-bit":
		return BranchTwoBit, true
	}
	return BranchPerfect, false
}

// defaultPredictorBits sizes the two-bit counter table (2^bits entries).
const defaultPredictorBits = 12

// predictor is the dynamic-prediction state.
type predictor struct {
	policy   BranchPolicy
	counters []uint8 // 2-bit saturating counters, initialized weakly not-taken
	mask     uint32

	branches    uint64
	mispredicts uint64
}

func newPredictor(policy BranchPolicy, bits int) *predictor {
	p := &predictor{policy: policy}
	if policy == BranchTwoBit {
		if bits <= 0 {
			bits = defaultPredictorBits
		}
		if bits > 24 {
			bits = 24
		}
		p.counters = make([]uint8, 1<<bits)
		for i := range p.counters {
			p.counters[i] = 1 // weakly not-taken
		}
		p.mask = uint32(len(p.counters) - 1)
	}
	return p
}

// mispredicted consumes one conditional branch — its PC, the sign of its
// displacement, and whether it was taken — and reports whether the modelled
// predictor got it wrong. The event is passed as fields rather than a
// *trace.Event so the speculative splice (ApplyDelta), which replays
// compiled branch records instead of events, drives the same predictor
// state machine.
func (p *predictor) mispredicted(pc uint32, immNeg, taken bool) bool {
	p.branches++
	var predictTaken bool
	switch p.policy {
	case BranchStall:
		p.mispredicts++
		return true
	case BranchStatic:
		predictTaken = immNeg // backward-taken, forward-not-taken
	case BranchTwoBit:
		idx := (pc >> 2) & p.mask
		predictTaken = p.counters[idx] >= 2
		if taken {
			if p.counters[idx] < 3 {
				p.counters[idx]++
			}
		} else if p.counters[idx] > 0 {
			p.counters[idx]--
		}
	default:
		return false
	}
	if predictTaken != taken {
		p.mispredicts++
		return true
	}
	return false
}

// branchResolution computes the DDG level at which a conditional branch's
// outcome is known: one step after its deepest source value (or the
// firewall floor).
func (a *Analyzer) branchResolution(e *trace.Event) int64 {
	base := a.highestLevel - 1
	a.srcBuf = e.Ins.SourceRegs(a.srcBuf[:0])
	for _, r := range a.srcBuf {
		if r == isa.Zero {
			continue
		}
		if rec := a.well.reg(r); rec.level > base {
			base = rec.level
		}
	}
	return base + a.cfg.latency(e.Ins.Op)
}
