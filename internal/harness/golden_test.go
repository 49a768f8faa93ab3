package harness

// Golden-file tests: the committed renderings under testdata/golden pin both
// the numeric results and the table/figure formatting of the paper's
// reproduction at scale 1. A change to the analyzer, the workloads, the
// compiler, or the renderers shows up as a diff here. Regenerate with
//
//	go test ./internal/harness -run Golden -update
//
// and review the diff like any other result change. The experiments run on
// the default (parallel) engine, so these also pin the fan-out engine's
// output byte-for-byte across machines and GOMAXPROCS values.

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata/golden")

// skipUnderRace skips a golden test in -race builds, before it spends time
// re-running a full-suite experiment (see checkGolden).
func skipUnderRace(t *testing.T) {
	t.Helper()
	if raceDetectorEnabled {
		t.Skip("golden battery pins deterministic output; skipped under -race")
	}
}

// checkGolden compares got against the named golden file, or rewrites the
// file under -update. Under the race detector the golden battery is
// skipped: it pins deterministic formatting and numerics, which -race adds
// nothing to, and the full-suite experiments it reruns would dominate the
// race gate's runtime (the Differential battery is the concurrency gate).
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", "golden", name)
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", path, len(got))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file %s (regenerate with -update): %v", path, err)
	}
	if string(want) == got {
		return
	}
	t.Errorf("%s differs from golden file (regenerate with -update if the change is intended)\n%s",
		name, diffLines(string(want), got))
}

// diffLines reports the first few differing lines, enough to locate a
// regression without dumping two whole tables.
func diffLines(want, got string) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	var b strings.Builder
	shown := 0
	for i := 0; i < len(w) || i < len(g); i++ {
		var wl, gl string
		if i < len(w) {
			wl = w[i]
		}
		if i < len(g) {
			gl = g[i]
		}
		if wl == gl {
			continue
		}
		fmt.Fprintf(&b, "line %d:\n  golden: %q\n  got:    %q\n", i+1, wl, gl)
		if shown++; shown == 5 {
			fmt.Fprintf(&b, "  ... (more differences elided)\n")
			break
		}
	}
	return b.String()
}

func TestGoldenTable1(t *testing.T) {
	var buf bytes.Buffer
	if err := RenderTable1(&buf); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "table1.txt", buf.String())
}

func TestGoldenTable2(t *testing.T) {
	skipUnderRace(t)
	rows, err := NewSuite(1).Table2(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := RenderTable2(&buf, rows); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "table2.txt", buf.String())
}

func TestGoldenTable3(t *testing.T) {
	skipUnderRace(t)
	rows, err := NewSuite(1).Table3(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := RenderTable3(&buf, rows); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "table3.txt", buf.String())
}

func TestGoldenTable4(t *testing.T) {
	skipUnderRace(t)
	rows, err := NewSuite(1).Table4(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := RenderTable4(&buf, rows); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "table4.txt", buf.String())
}

func TestGoldenFigure7(t *testing.T) {
	skipUnderRace(t)
	profiles, err := NewSuite(1).Figure7(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := RenderFigure7(&buf, profiles); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "figure7.txt", buf.String())
}

// TestGoldenFigure8 pins the window-size sweep's rendered output.
// AnalyzeMulti routes every multi-config analysis — this sweep as well as
// Tables 3 and 4 — through the resolved engine, so the golden files pin
// the shared-extraction path against rendered numbers, not just
// deep-equality to sequential analyzers.
func TestGoldenFigure8(t *testing.T) {
	skipUnderRace(t)
	s := NewSuite(1)
	s.Concurrency = 4
	series, err := s.Figure8(context.Background(), []int{1, 16, 128, 4096, 65536, 0})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := RenderFigure8(&buf, series); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "figure8.txt", buf.String())
}

// TestGoldenFigure8Full pins the whole Figure-8 sweep: all 22 windows of
// DefaultWindowSizes, where figure8.txt pins a 6-window subset.
func TestGoldenFigure8Full(t *testing.T) {
	skipUnderRace(t)
	series, err := NewSuite(1).Figure8(context.Background(), DefaultWindowSizes())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := RenderFigure8(&buf, series); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "figure8_full.txt", buf.String())
}

// TestGoldenFunctionalUnits pins the E8 sweep at its default limits.
func TestGoldenFunctionalUnits(t *testing.T) {
	skipUnderRace(t)
	rows, err := NewSuite(1).FunctionalUnits(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := RenderFunctionalUnits(&buf, rows); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "fus.txt", buf.String())
}

// TestGoldenLifetimes pins the E9 lifetime and sharing distributions.
func TestGoldenLifetimes(t *testing.T) {
	skipUnderRace(t)
	rows, err := NewSuite(1).Lifetimes(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := RenderLifetimes(&buf, rows); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "lifetimes.txt", buf.String())
}

// TestGoldenBranches pins the E10 branch-model sweep at its default
// policies.
func TestGoldenBranches(t *testing.T) {
	skipUnderRace(t)
	rows, err := NewSuite(1).BranchPrediction(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := RenderBranches(&buf, rows); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "branches.txt", buf.String())
}

// TestGoldenUnroll pins the E7 unrolling ablation on naskerx, specrun's
// default ablation workload.
func TestGoldenUnroll(t *testing.T) {
	skipUnderRace(t)
	rows, err := NewSuite(1).AblationUnroll(context.Background(), "naskerx", nil)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := RenderUnroll(&buf, rows); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "unroll.txt", buf.String())
}
