package workloads

import (
	"io"
	"strings"
	"testing"

	"paragraph/internal/cpu"
	"paragraph/internal/minic"
	"paragraph/internal/trace"
)

func TestRegistryComplete(t *testing.T) {
	all := All()
	if len(all) != 10 {
		t.Fatalf("registry has %d workloads, want 10", len(all))
	}
	originals := map[string]bool{}
	for _, w := range all {
		if w.Name == "" || w.Original == "" || w.Description == "" || w.Source == nil {
			t.Errorf("workload %+v incomplete", w)
		}
		originals[w.Original] = true
	}
	for _, o := range []string{
		"cc1", "doduc", "eqntott", "espresso", "fpppp",
		"matrix300", "nasker", "spice2g6", "tomcatv", "xlisp",
	} {
		if !originals[o] {
			t.Errorf("missing analogue for %s", o)
		}
	}
}

func TestByName(t *testing.T) {
	if w, ok := ByName("matrixx"); !ok || w.Original != "matrix300" {
		t.Errorf("ByName(matrixx) = %v, %v", w, ok)
	}
	if w, ok := ByName("xlisp"); !ok || w.Name != "xlispx" {
		t.Errorf("ByName by original failed: %v, %v", w, ok)
	}
	if _, ok := ByName("nope"); ok {
		t.Error("ByName accepted unknown name")
	}
}

// TestAllWorkloadsRun executes every workload at scale 1 and checks it
// terminates cleanly with plausible output and trace length.
func TestAllWorkloadsRun(t *testing.T) {
	for _, w := range All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			var count trace.Counter
			res, err := w.Run(1, minic.Options{}, &count, 100_000_000)
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			if !strings.HasPrefix(res.Output, w.Name+" ") {
				t.Errorf("output = %q, want prefix %q", res.Output, w.Name)
			}
			if !strings.HasSuffix(res.Output, "\n") {
				t.Errorf("output not newline-terminated: %q", res.Output)
			}
			if res.Instructions < 50_000 {
				t.Errorf("only %d instructions at scale 1; too small to be interesting", res.Instructions)
			}
			if res.Instructions > 20_000_000 {
				t.Errorf("%d instructions at scale 1; too big for sweep experiments", res.Instructions)
			}
			if count.N != res.Instructions {
				t.Errorf("trace events %d != instructions %d", count.N, res.Instructions)
			}
			if res.ExitCode != 0 {
				t.Errorf("exit code = %d", res.ExitCode)
			}
			t.Logf("%s: %d instructions, output %q", w.Name, res.Instructions, strings.TrimSpace(res.Output))
		})
	}
}

// TestDeterminism: two runs produce identical traces and outputs.
func TestDeterminism(t *testing.T) {
	w, _ := ByName("spicex")
	run := func() (string, uint64) {
		var count trace.Counter
		res, err := w.Run(1, minic.Options{}, &count, 0)
		if err != nil {
			t.Fatal(err)
		}
		return res.Output, count.N
	}
	out1, n1 := run()
	out2, n2 := run()
	if out1 != out2 || n1 != n2 {
		t.Errorf("nondeterministic: (%q, %d) vs (%q, %d)", out1, n1, out2, n2)
	}
}

// TestScaleGrowsTrace: every analogue terminates at scales 2 and 4 and
// executes about scale times its scale-1 instruction count (within 25%).
// Each run is capped at twice that, so an analogue that stops terminating
// (cc1x's symbol table once filled up at scale 2) fails fast with
// cpu.ErrLimit instead of hanging.
func TestScaleGrowsTrace(t *testing.T) {
	run := func(w *Workload, scale int, limit uint64) (uint64, error) {
		prog, err := w.Build(scale, minic.Options{})
		if err != nil {
			return 0, err
		}
		m, err := cpu.New(prog, cpu.WithStdout(io.Discard))
		if err != nil {
			return 0, err
		}
		return m.Run(limit)
	}
	for _, w := range All() {
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			base, err := run(w, 1, 0)
			if err != nil {
				t.Fatalf("scale 1: %v", err)
			}
			for _, scale := range []int{2, 4} {
				n, err := run(w, scale, 2*uint64(scale)*base)
				if err != nil {
					t.Fatalf("scale %d: %v", scale, err)
				}
				ratio := float64(n) / float64(base)
				if ratio < 0.75*float64(scale) || ratio > 1.25*float64(scale) {
					t.Errorf("scale-%d/scale-1 instruction ratio = %.2f, want ~%d", scale, ratio, scale)
				}
			}
		})
	}
}

// TestUnrollingPreservesOutput: the E7 ablation relies on unrolled
// workloads computing identical results.
func TestUnrollingPreservesOutput(t *testing.T) {
	for _, name := range []string{"matrixx", "naskerx"} {
		w, _ := ByName(name)
		plain, err := w.Run(1, minic.Options{}, nil, 0)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		unrolled, err := w.Run(1, minic.Options{Unroll: 4}, nil, 0)
		if err != nil {
			t.Fatalf("%s unrolled: %v", name, err)
		}
		if plain.Output != unrolled.Output {
			t.Errorf("%s: unrolled output %q != plain %q", name, unrolled.Output, plain.Output)
		}
	}
}

// TestMaxInstrLimit: the instruction budget truncates long runs, matching
// the paper's "at most 100,000,000 instructions were traced".
func TestMaxInstrLimit(t *testing.T) {
	w, _ := ByName("cc1x")
	res, err := w.Run(1, minic.Options{}, nil, 10_000)
	if err != nil {
		t.Fatal(err)
	}
	if res.Instructions != 10_000 {
		t.Errorf("executed %d, want exactly the 10,000 budget", res.Instructions)
	}
}

// TestGoldenOutputs: each workload's scale-1 output matches its recorded
// golden value — the numerical results of the benchmarks themselves are
// part of the reproduction's contract (deterministic arithmetic through
// the compiler, assembler, and simulator).
func TestGoldenOutputs(t *testing.T) {
	for _, w := range All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			if w.ExpectOutput == "" {
				t.Fatalf("%s has no golden output recorded", w.Name)
			}
			res, err := w.Run(1, minic.Options{}, nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			if res.Output != w.ExpectOutput {
				t.Errorf("output %q, want %q", res.Output, w.ExpectOutput)
			}
		})
	}
}
