// Package core implements Paragraph, the paper's dynamic-dependency-graph
// (DDG) analyzer. It consumes a serial execution trace (package trace) in a
// single forward pass and produces the paper's metrics: critical path
// length, available parallelism, the parallelism profile, and (optionally)
// value-lifetime and degree-of-sharing distributions.
//
// # The live well and the placement rule
//
// The analyzer never materializes the DDG. Instead it keeps a hash table of
// live values — the live well — mapping each storage location (register or
// memory word) to the DDG level at which its current value becomes
// available, the deepest level at which that value has been consumed, and
// its consumer count. Each value-creating instruction is assigned the level
//
//	Ldest = MAX(Lsrc1, Lsrc2, ..., highestLevel-1 [, Ddest+1]) + top
//
// where Lsrc are the availability levels of its sources, top is the
// operation time from the paper's Table 1 (isa.OpClass.Latency), and the
// Ddest+1 term — present only when storage dependencies for the destination
// are being kept, i.e. renaming is off for that location class — forces the
// new value to be created only after the previous value in the same location
// has been fully consumed (WAR) and created (WAW).
//
// highestLevel implements firewalls: values that pre-exist (registers at
// startup, DATA-segment memory) enter the live well at highestLevel-1 so
// they never delay computation, and system calls under the conservative
// policy raise highestLevel past the deepest level yet used so that no later
// operation can be placed above them. The sliding instruction window is
// implemented the same way: an instruction displaced from the window raises
// highestLevel past its own level.
package core

import (
	"paragraph/internal/budget"
	"paragraph/internal/isa"
)

// SyscallPolicy selects how system calls constrain the DDG, mirroring the
// paper's "System Calls Stall" switch.
type SyscallPolicy uint8

const (
	// SyscallConservative assumes a system call modifies every live
	// value: a firewall is placed after the deepest computation and all
	// later operations are placed below it. This bounds the true
	// parallelism from below.
	SyscallConservative SyscallPolicy = iota
	// SyscallOptimistic assumes a system call modifies nothing; the
	// instruction is ignored. This bounds the true parallelism from
	// above.
	SyscallOptimistic
)

func (p SyscallPolicy) String() string {
	if p == SyscallConservative {
		return "conservative"
	}
	return "optimistic"
}

// ParseSyscallPolicy maps the CLI spellings to a policy.
func ParseSyscallPolicy(s string) (SyscallPolicy, bool) {
	switch s {
	case "conservative", "cons":
		return SyscallConservative, true
	case "optimistic", "opt":
		return SyscallOptimistic, true
	}
	return SyscallConservative, false
}

// Config carries the analysis switches of Section 3.2 of the paper. The
// zero value is the most constrained sensible configuration: conservative
// system calls, no renaming anywhere, unlimited window and functional
// units.
type Config struct {
	// Syscalls selects the system-call policy.
	Syscalls SyscallPolicy

	// RenameRegisters removes storage dependencies on registers
	// (unbounded physical registers assumed).
	RenameRegisters bool
	// RenameStack removes storage dependencies on stack-segment memory.
	RenameStack bool
	// RenameData removes storage dependencies on non-stack memory (the
	// static data segment and the heap).
	RenameData bool

	// WindowSize limits how many contiguous trace instructions are
	// visible at once when placing operations; 0 means the window spans
	// the whole trace (no control constraint). Every trace instruction,
	// including branches, occupies a window slot, exactly as a hardware
	// instruction window would hold them.
	WindowSize int

	// FunctionalUnits caps how many operations may be executing in any
	// single DDG level; 0 means unlimited. Each operation occupies one
	// generic unit for its entire latency.
	FunctionalUnits int

	// Branches selects the control-dependency model: perfect prediction
	// (the paper's default), firewalls on every branch, or firewalls on
	// the mispredictions of a static or two-bit predictor.
	Branches BranchPolicy
	// PredictorBits sizes the two-bit predictor table (2^bits counters);
	// 0 selects the default of 12.
	PredictorBits int

	// UnitLatency, when set, gives every operation a latency of one
	// level instead of the Table-1 values. Used by ablation studies to
	// isolate the effect of operation latencies on the critical path.
	UnitLatency bool
	// LatencyOverride replaces the Table-1 operation time for specific
	// classes (e.g. modelling a 3-cycle multiplier or a 20-cycle
	// divider); classes not present keep their defaults. Ignored when
	// UnitLatency is set.
	LatencyOverride map[isa.OpClass]int

	// ProfileBuckets bounds the resolution of the parallelism profile;
	// 0 selects stats.DefaultMaxBuckets. Ignored when Profile is false.
	ProfileBuckets int
	// Profile enables collection of the parallelism profile. Leaving it
	// off makes sweeps (Table 4, Figure 8) cheaper.
	Profile bool

	// StorageProfile enables collection of the live-well occupancy curve
	// (live memory words per trace position) — the "memory requirement
	// profile" of the Kumar study the paper builds on.
	StorageProfile bool

	// Lifetimes enables the value-lifetime distribution (levels between
	// a value's creation and its last use).
	Lifetimes bool
	// Sharing enables the degree-of-sharing distribution (number of
	// consumers per value).
	Sharing bool

	// MemBudget bounds the analyzer's tracked working set — live well,
	// window state, functional-unit schedule — in estimated bytes;
	// 0 disables governance entirely (the default, and the byte-identical
	// legacy behaviour). Usage is checked every budget.CheckEvery events,
	// so the hot loop pays nothing measurable.
	MemBudget int64
	// BudgetPolicy selects the response to budget pressure: fail fast
	// with a structured budget.Error (the zero value), degrade by
	// tightening the effective instruction window, or warn-only.
	// Ignored when MemBudget is 0.
	BudgetPolicy budget.Policy
}

// Dataflow returns the paper's upper-bound configuration: all renaming on,
// unlimited window and functional units. The syscall policy is the given
// one; the paper reports both.
func Dataflow(p SyscallPolicy) Config {
	return Config{
		Syscalls:        p,
		RenameRegisters: true,
		RenameStack:     true,
		RenameData:      true,
		Profile:         true,
	}
}

// Clone returns a deep copy of the configuration: the LatencyOverride map,
// the only reference-typed field, is copied rather than shared. NewAnalyzer
// clones its argument, so any number of analyzers built from one Config
// value — including concurrently, as the harness fan-out engine does — hold
// fully independent state even if the caller later mutates the original map.
func (c Config) Clone() Config {
	out := c
	if c.LatencyOverride != nil {
		out.LatencyOverride = make(map[isa.OpClass]int, len(c.LatencyOverride))
		for k, v := range c.LatencyOverride {
			out.LatencyOverride[k] = v
		}
	}
	return out
}

// latency returns the operation time in DDG levels under this config.
func (c *Config) latency(op isa.Op) int64 {
	if c.UnitLatency {
		return 1
	}
	if len(c.LatencyOverride) > 0 {
		if t, ok := c.LatencyOverride[op.Class()]; ok && t > 0 {
			return int64(t)
		}
	}
	return int64(op.Latency())
}
