package budget

import (
	"errors"
	"testing"
)

func TestDisabledGovernorNeverIntervenes(t *testing.T) {
	g := New(0, FailFast)
	w, err := g.Govern(Usage{LiveWellBytes: 1 << 40}, 128)
	if err != nil || w != 128 {
		t.Fatalf("disabled governor intervened: window=%d err=%v", w, err)
	}
	if g.Stats().Checks != 0 {
		t.Fatalf("disabled governor recorded checks: %+v", g.Stats())
	}
	var nilGov *Governor
	if nilGov.Enabled() {
		t.Fatal("nil governor reports enabled")
	}
}

func TestFailFastReturnsStructuredError(t *testing.T) {
	g := New(1000, FailFast)
	if _, err := g.Govern(Usage{LiveWellBytes: 900}, 0); err != nil {
		t.Fatalf("under budget errored: %v", err)
	}
	_, err := g.Govern(Usage{LiveWellBytes: 1200, WindowBytes: 10}, 0)
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("err = %v, want ErrBudgetExceeded", err)
	}
	var be *Error
	if !errors.As(err, &be) {
		t.Fatalf("err = %T, want *budget.Error", err)
	}
	if be.Resource != LiveWell || be.UsageBytes != 1210 || be.LimitBytes != 1000 {
		t.Fatalf("bad structured error: %+v", be)
	}
	st := g.Stats()
	if st.Checks != 2 || st.PeakBytes != 1210 || st.PeakLiveWellBytes != 1200 {
		t.Fatalf("bad stats: %+v", st)
	}
}

func TestDominantResource(t *testing.T) {
	cases := []struct {
		u    Usage
		want Resource
	}{
		{Usage{LiveWellBytes: 100, WindowBytes: 1}, LiveWell},
		{Usage{LiveWellBytes: 1, WindowBytes: 100}, Window},
		// A tie goes to the live well.
		{Usage{LiveWellBytes: 40, WindowBytes: 40}, LiveWell},
	}
	for _, c := range cases {
		if got := c.u.dominant(); got != c.want {
			t.Errorf("dominant(%+v) = %s, want %s", c.u, got, c.want)
		}
	}
}

func TestDegradeTightensWindowAndRecords(t *testing.T) {
	g := New(100, Degrade)
	over := Usage{LiveWellBytes: 500}

	// Unlimited window: first degradation imposes the start window.
	w, err := g.Govern(over, 0)
	if err != nil {
		t.Fatalf("degrade errored: %v", err)
	}
	if w != DegradeStartWindow {
		t.Fatalf("first degradation window = %d, want %d", w, DegradeStartWindow)
	}
	// Still over: halves.
	w, _ = g.Govern(over, w)
	if w != DegradeStartWindow/2 {
		t.Fatalf("second degradation window = %d, want %d", w, DegradeStartWindow/2)
	}
	// Drive to the floor.
	for i := 0; i < 40; i++ {
		w, _ = g.Govern(over, w)
	}
	if w != MinWindow {
		t.Fatalf("window bottomed at %d, want %d", w, MinWindow)
	}
	st := g.Stats()
	if st.Degradations == 0 || st.EffectiveWindow != MinWindow {
		t.Fatalf("bad degrade stats: %+v", st)
	}
	// At the floor, further overages only warn.
	warnsBefore := st.Warnings
	if w2, _ := g.Govern(over, w); w2 != w {
		t.Fatalf("window tightened below floor: %d", w2)
	}
	if g.Stats().Warnings != warnsBefore+1 {
		t.Fatalf("floor overage not counted as warning: %+v", g.Stats())
	}
	if !g.Stats().Governed() {
		t.Fatal("Governed() = false after degradations")
	}
}

func TestDegradeUnderBudgetLeavesWindowAlone(t *testing.T) {
	g := New(1<<20, Degrade)
	if w, err := g.Govern(Usage{LiveWellBytes: 10}, 4096); err != nil || w != 4096 {
		t.Fatalf("under-budget degrade touched window: w=%d err=%v", w, err)
	}
	if g.Stats().Governed() {
		t.Fatal("Governed() = true with no interventions")
	}
}

func TestWarnOnlyCountsButNeverChanges(t *testing.T) {
	g := New(10, WarnOnly)
	for i := 0; i < 3; i++ {
		w, err := g.Govern(Usage{WindowBytes: 100}, 77)
		if err != nil || w != 77 {
			t.Fatalf("warn-only intervened: w=%d err=%v", w, err)
		}
	}
	if st := g.Stats(); st.Warnings != 3 || st.Degradations != 0 {
		t.Fatalf("bad warn stats: %+v", st)
	}
}

func TestParsePolicy(t *testing.T) {
	for s, want := range map[string]Policy{
		"fail": FailFast, "fail-fast": FailFast,
		"degrade": Degrade,
		"warn":    WarnOnly, "warn-only": WarnOnly,
	} {
		got, err := ParsePolicy(s)
		if err != nil || got != want {
			t.Errorf("ParsePolicy(%q) = %v, %v; want %v", s, got, err, want)
		}
	}
	if _, err := ParsePolicy("explode"); err == nil {
		t.Fatal("ParsePolicy accepted garbage")
	}
	for _, p := range []Policy{FailFast, Degrade, WarnOnly} {
		back, err := ParsePolicy(p.String())
		if err != nil || back != p {
			t.Errorf("round-trip of %v failed: %v, %v", p, back, err)
		}
	}
}

func TestCloneIsIndependent(t *testing.T) {
	g := New(10, WarnOnly)
	g.Govern(Usage{LiveWellBytes: 100}, 0)
	c := g.Clone()
	g.Govern(Usage{LiveWellBytes: 100}, 0)
	if c.Stats().Warnings != 1 || g.Stats().Warnings != 2 {
		t.Fatalf("clone shares stats: clone=%+v orig=%+v", c.Stats(), g.Stats())
	}
	if (*Governor)(nil).Clone() != nil {
		t.Fatal("nil clone not nil")
	}
}

// TestEngineDowngradeNote: an engine downgrade alone, which the harness
// records on a Result's stats, makes the run count as governed.
func TestEngineDowngradeNote(t *testing.T) {
	g := New(10, Degrade)
	g.RestoreStats(GovernorStats{EngineDowngraded: true})
	if st := g.Stats(); !st.EngineDowngraded || !st.Governed() {
		t.Fatalf("downgrade note lost: %+v", st)
	}
}

func TestParseBytes(t *testing.T) {
	good := map[string]int64{
		"0":    0, // explicit "no budget"
		"4096": 4096,
		"64k":  64 << 10,
		"64K":  64 << 10,
		"64M":  64 << 20,
		"2g":   2 << 30,
		"1G":   1 << 30,
	}
	for in, want := range good {
		got, err := ParseBytes(in)
		if err != nil || got != want {
			t.Errorf("ParseBytes(%q) = %d, %v; want %d", in, got, err, want)
		}
	}
	for _, in := range []string{"", "lots", "-1", "-4K", "1.5G", "M", "64MB"} {
		if v, err := ParseBytes(in); err == nil {
			t.Errorf("ParseBytes(%q) = %d, want error", in, v)
		}
	}
}
