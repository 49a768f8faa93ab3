// Package budget implements the resource governor of the analysis stack:
// always-on, amortized metering of the analyzer's dominant working sets —
// the live well and the sliding-window state — against a configurable
// memory budget, which the resolved engine's segment ring also fits into.
//
// The paper's live well was the reproduction target's dominant memory
// consumer (~32 MB for 100M-instruction SPEC'89 traces); at larger scales an
// unbounded live well is how an analysis OOMs instead of failing cleanly.
// The Governor gives every long-running analysis one of three behaviours at
// the budget boundary:
//
//   - FailFast: the analysis stops with a structured *Error identifying
//     which resource overflowed, its usage, and the limit.
//   - Degrade: the analysis continues with a tighter effective instruction
//     window (bounding window state and firewalling older levels), and the
//     downgrade is recorded in GovernorStats — the ReadStats pattern of the
//     degraded trace reader, applied to memory.
//   - WarnOnly: the overage is only counted; nothing changes.
//
// A Governor is cheap by construction: callers consult it every N events
// (budget.CheckEvery by convention), never per event, so the hot loop pays
// one integer comparison per event in the common case. A Governor is not
// safe for concurrent use; give each analyzer its own (Clone).
package budget

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
)

// ErrBudgetExceeded is the sentinel wrapped by every budget failure, so
// callers can classify with errors.Is regardless of which resource overflowed.
var ErrBudgetExceeded = errors.New("budget: memory budget exceeded")

// Policy selects what happens when usage crosses the budget.
type Policy uint8

const (
	// FailFast aborts the analysis with a structured *Error. The default:
	// over budget is an error unless the caller opted into degradation.
	FailFast Policy = iota
	// Degrade tightens the effective instruction window instead of
	// failing, trading analysis fidelity for bounded memory; every
	// downgrade is recorded in GovernorStats.
	Degrade
	// WarnOnly counts overages in GovernorStats but never intervenes.
	WarnOnly
)

func (p Policy) String() string {
	switch p {
	case FailFast:
		return "fail"
	case Degrade:
		return "degrade"
	case WarnOnly:
		return "warn"
	}
	return fmt.Sprintf("policy(%d)", uint8(p))
}

// ParsePolicy maps the CLI spellings to a Policy.
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "fail", "fail-fast", "failfast":
		return FailFast, nil
	case "degrade":
		return Degrade, nil
	case "warn", "warn-only", "warnonly":
		return WarnOnly, nil
	}
	return FailFast, fmt.Errorf("budget: unknown policy %q (want fail, degrade or warn)", s)
}

// ParseBytes parses a CLI byte-size spelling with an optional K/M/G suffix
// (powers of 1024): "64M", "1G", "4096". "0" is valid and means unlimited
// (no budget), matching New's treatment of a non-positive limit.
func ParseBytes(s string) (int64, error) {
	mult := int64(1)
	digits := s
	if n := len(s); n > 0 {
		switch s[n-1] {
		case 'k', 'K':
			mult, digits = 1<<10, s[:n-1]
		case 'm', 'M':
			mult, digits = 1<<20, s[:n-1]
		case 'g', 'G':
			mult, digits = 1<<30, s[:n-1]
		}
	}
	v, err := strconv.ParseInt(strings.TrimSpace(digits), 10, 64)
	if err != nil || v < 0 {
		return 0, fmt.Errorf("budget: bad size %q (want e.g. 64M, 1G)", s)
	}
	return v * mult, nil
}

// Resource names one metered working set in a budget failure.
type Resource string

const (
	// LiveWell is the analyzer's hash table of live values.
	LiveWell Resource = "live-well"
	// Window is the sliding-instruction-window state (plus the
	// functional-unit schedule, which scales the same way).
	Window Resource = "window"
	// SegmentRing is the resolved engine's ring of dependence-record
	// segments, sized before the run starts.
	SegmentRing Resource = "segment-ring"
)

// Error is a structured budget failure: which resource dominated the
// overage, the usage observed, and the configured limit. It wraps
// ErrBudgetExceeded for errors.Is classification.
type Error struct {
	Resource   Resource
	UsageBytes int64
	LimitBytes int64
}

func (e *Error) Error() string {
	return fmt.Sprintf("budget: %s usage %d bytes exceeds budget of %d bytes",
		e.Resource, e.UsageBytes, e.LimitBytes)
}

// Unwrap lets errors.Is(err, ErrBudgetExceeded) classify any budget failure.
func (e *Error) Unwrap() error { return ErrBudgetExceeded }

// Usage is one observation of the metered working sets, in bytes. Estimates
// are fine: the point is an order-of-magnitude guard rail, not an allocator.
type Usage struct {
	LiveWellBytes int64
	WindowBytes   int64
}

// Total sums the metered resources.
func (u Usage) Total() int64 { return u.LiveWellBytes + u.WindowBytes }

// dominant names the larger component of the observation; a tie goes to
// the live well.
func (u Usage) dominant() Resource {
	if u.WindowBytes > u.LiveWellBytes {
		return Window
	}
	return LiveWell
}

// GovernorStats is the governor's ReadStats-style accounting: what was
// observed, what was exceeded, and what the governor did about it.
type GovernorStats struct {
	// Checks counts Govern calls (one per CheckEvery events in the
	// analyzer loop).
	Checks uint64
	// PeakBytes is the largest total usage observed.
	PeakBytes int64
	// PeakLiveWellBytes is the largest live-well usage observed.
	PeakLiveWellBytes int64
	// Warnings counts over-budget observations under WarnOnly (and
	// over-budget observations under Degrade once the window cannot be
	// tightened further).
	Warnings uint64
	// Degradations counts window tightenings performed under Degrade.
	Degradations uint64
	// EffectiveWindow is the instruction window after the last
	// degradation; 0 while the window has never been tightened.
	EffectiveWindow int
	// EngineDowngraded records that the resolved engine fell back to the
	// streaming engine because its minimum segment ring would have
	// exceeded the budget.
	EngineDowngraded bool
}

// Governed reports whether the governor ever intervened or warned — i.e.
// whether the analysis results may differ from an ungoverned run.
func (s GovernorStats) Governed() bool {
	return s.Warnings > 0 || s.Degradations > 0 || s.EngineDowngraded
}

// Default degrade-mode window parameters: the first degradation of an
// unlimited window starts here, each further degradation halves, and the
// window never tightens below the floor (at which point Degrade behaves
// like WarnOnly, with the overage counted).
const (
	// DegradeStartWindow is the effective window imposed by the first
	// degradation of an unlimited (whole-trace) window.
	DegradeStartWindow = 1 << 16
	// MinWindow is the tightest window degradation will impose.
	MinWindow = 64
)

// CheckEvery is the conventional metering period: callers consult the
// governor once per this many events, so governance adds no per-event cost.
const CheckEvery = 1024

// Measured per-entry working-set costs in bytes for the analyzer's metered
// structures. LiveWellEntryBytes is calibrated against runtime.MemStats by
// BenchmarkLiveWellCalibration in internal/core (heap growth divided by
// live entries for the open-addressed live-well table, which stores a
// 4-byte key, a 24-byte record and an occupancy byte per slot and runs
// between 3/8 and 3/4 load): measured 38.7 B/entry at maximum load and
// 77.3 B/entry just after a doubling; the constant is the expected cost at
// a random point of the growth cycle (29 B/slot / 0.375 * ln 2 ~= 54 B),
// rounded up. The window costs are exact: one uint64 and one int64 per
// in-window instruction, an int64 key plus an int per functional-unit
// schedule entry.
const (
	LiveWellEntryBytes = 56
	WindowEntryBytes   = 16
	FUEntryBytes       = 16
)

// Governor meters Usage observations against a byte budget under one of the
// three policies. The zero Governor is invalid; use New.
type Governor struct {
	limit  int64
	policy Policy
	stats  GovernorStats
}

// New returns a governor enforcing limitBytes under the given policy.
// limitBytes <= 0 disables metering entirely (Govern never intervenes and
// records nothing); callers may use Enabled to skip the call.
func New(limitBytes int64, policy Policy) *Governor {
	return &Governor{limit: limitBytes, policy: policy}
}

// Enabled reports whether the governor has a budget to enforce.
func (g *Governor) Enabled() bool { return g != nil && g.limit > 0 }

// Limit returns the configured budget in bytes.
func (g *Governor) Limit() int64 { return g.limit }

// Policy returns the configured policy.
func (g *Governor) Policy() Policy { return g.policy }

// Stats returns the accounting so far.
func (g *Governor) Stats() GovernorStats { return g.stats }

// Govern meters one observation. window is the caller's current effective
// instruction window (0 = unlimited); the returned window is what the caller
// should use from now on — unchanged except under Degrade while over budget.
// A non-nil error (FailFast policy) is a *Error wrapping ErrBudgetExceeded.
func (g *Governor) Govern(u Usage, window int) (int, error) {
	if !g.Enabled() {
		return window, nil
	}
	g.stats.Checks++
	total := u.Total()
	if total > g.stats.PeakBytes {
		g.stats.PeakBytes = total
	}
	if u.LiveWellBytes > g.stats.PeakLiveWellBytes {
		g.stats.PeakLiveWellBytes = u.LiveWellBytes
	}
	if total <= g.limit {
		return window, nil
	}
	switch g.policy {
	case FailFast:
		return window, &Error{Resource: u.dominant(), UsageBytes: total, LimitBytes: g.limit}
	case Degrade:
		next := tighten(window)
		if next == window {
			// Already at the floor: nothing left to trade away.
			g.stats.Warnings++
			return window, nil
		}
		g.stats.Degradations++
		g.stats.EffectiveWindow = next
		return next, nil
	default: // WarnOnly
		g.stats.Warnings++
		return window, nil
	}
}

// tighten computes the next, smaller effective window: unlimited windows
// start at DegradeStartWindow, finite ones halve, and MinWindow is the floor.
func tighten(window int) int {
	switch {
	case window == 0:
		return DegradeStartWindow
	case window <= MinWindow:
		return window
	}
	next := window / 2
	if next < MinWindow {
		next = MinWindow
	}
	return next
}

// Clone returns an independent governor with the same limit and policy and a
// copy of the accounting so far; used when checkpointing an analysis.
func (g *Governor) Clone() *Governor {
	if g == nil {
		return nil
	}
	c := *g
	return &c
}

// RestoreStats overwrites the accounting; used when resuming an analysis
// from a persisted checkpoint.
func (g *Governor) RestoreStats(s GovernorStats) { g.stats = s }
