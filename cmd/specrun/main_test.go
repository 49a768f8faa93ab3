package main

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"paragraph/internal/workloads"
)

// runSpecrun invokes the CLI entry point with captured output.
func runSpecrun(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errb bytes.Buffer
	code = run(context.Background(), args, &out, &errb)
	return code, out.String(), errb.String()
}

func TestExitCodeSuccess(t *testing.T) {
	code, stdout, stderr := runSpecrun(t, "-table2", "-workloads", "xlispx", "-max", "100000")
	if code != 0 {
		t.Fatalf("exit code = %d, stderr:\n%s", code, stderr)
	}
	if !strings.Contains(stdout, "xlispx") {
		t.Errorf("table output missing the workload row:\n%s", stdout)
	}
}

// TestKeepGoingExitCode is the regression test for the silent-success bug
// class: -keep-going renders partial tables but the process must still exit
// non-zero when any row failed.
func TestKeepGoingExitCode(t *testing.T) {
	code, stdout, stderr := runSpecrun(t,
		"-table3", "-workloads", "xlispx", "-keep-going", "-timeout", "1ns")
	if code != 1 {
		t.Fatalf("exit code = %d, want 1 for a keep-going run with failures\nstderr:\n%s", code, stderr)
	}
	if !strings.Contains(stdout, "FAILED") {
		t.Errorf("table does not mark the failed row:\n%s", stdout)
	}
	if !strings.Contains(stderr, "some workloads failed") {
		t.Errorf("stderr does not summarize the failure:\n%s", stderr)
	}
}

func TestUsageErrors(t *testing.T) {
	if code, _, _ := runSpecrun(t); code != 2 {
		t.Errorf("no experiments selected: exit code %d, want 2", code)
	}
	if code, _, _ := runSpecrun(t, "-bogus-flag"); code != 2 {
		t.Errorf("unknown flag: exit code %d, want 2", code)
	}
	if code, _, stderr := runSpecrun(t, "-table2", "-workloads", "nonesuch"); code != 1 ||
		!strings.Contains(stderr, "nonesuch") {
		t.Errorf("unknown workload: exit code %d, stderr %q", code, stderr)
	}
	if code, _, stderr := runSpecrun(t, "-table2", "-resume"); code != 1 ||
		!strings.Contains(stderr, "-autosave") {
		t.Errorf("-resume without -autosave: exit code %d, stderr %q", code, stderr)
	}
	if code, _, stderr := runSpecrun(t, "-table2", "-workloads", "xlispx", "-mem-budget", "lots"); code != 1 ||
		!strings.Contains(stderr, "bad size") {
		t.Errorf("bad -mem-budget: exit code %d, stderr %q", code, stderr)
	}
}

// TestAutosaveResumeByteIdentical is the crash-recovery acceptance test at
// the CLI level: a run resumed from a partial autosave store must emit
// byte-identical tables to the uninterrupted run.
func TestAutosaveResumeByteIdentical(t *testing.T) {
	store := filepath.Join(t.TempDir(), "rows.json")
	args := []string{"-table3", "-workloads", "xlispx,matrixx", "-max", "150000", "-autosave", store}

	code, want, stderr := runSpecrun(t, args...)
	if code != 0 {
		t.Fatalf("full run failed (%d):\n%s", code, stderr)
	}

	// Simulate a run that died after finishing only xlispx: tombstone the
	// other workload's row through the store's own log operations.
	st, err := openStore(store, true)
	if err != nil {
		t.Fatal(err)
	}
	if !st.has("table3/xlispx") {
		t.Fatal("store is missing the xlispx row")
	}
	if err := st.drop("table3/matrixx"); err != nil {
		t.Fatal(err)
	}
	if err := st.close(); err != nil {
		t.Fatal(err)
	}

	code, got, stderr := runSpecrun(t, append(args, "-resume")...)
	if code != 0 {
		t.Fatalf("resumed run failed (%d):\n%s", code, stderr)
	}
	if got != want {
		t.Errorf("resumed output differs from the uninterrupted run\ngot:\n%s\nwant:\n%s", got, want)
	}

	// A second resume finds every row cached and recomputes nothing, but
	// the rendered tables are still identical.
	code, again, stderr := runSpecrun(t, append(args, "-resume")...)
	if code != 0 {
		t.Fatalf("fully-cached run failed (%d):\n%s", code, stderr)
	}
	if again != want {
		t.Errorf("fully-cached output differs from the uninterrupted run\ngot:\n%s\nwant:\n%s", again, want)
	}
}

// TestAutosaveSkipsFailedRows: rows that failed are not persisted, so a
// resume retries them instead of replaying the failure forever.
func TestAutosaveSkipsFailedRows(t *testing.T) {
	store := filepath.Join(t.TempDir(), "rows.json")
	code, _, _ := runSpecrun(t,
		"-table3", "-workloads", "xlispx", "-keep-going", "-timeout", "1ns", "-autosave", store)
	if code != 1 {
		t.Fatalf("exit code = %d, want 1", code)
	}
	if _, err := os.Stat(store); err == nil {
		st, err := openStore(store, true)
		if err != nil {
			t.Fatalf("store does not reopen cleanly: %v", err)
		}
		if st.has("table3/xlispx") {
			t.Error("failed row was persisted")
		}
		st.close()
	}

	// Retried without the absurd timeout, the resumed run succeeds.
	code, stdout, stderr := runSpecrun(t,
		"-table3", "-workloads", "xlispx", "-max", "150000", "-autosave", store, "-resume")
	if code != 0 {
		t.Fatalf("retry failed (%d):\n%s", code, stderr)
	}
	if !strings.Contains(stdout, "xlispx") {
		t.Errorf("retried table missing the workload row:\n%s", stdout)
	}
}

// countCompiles wraps every registered workload's Source with a counter —
// one call per compile — for the rest of the test.
func countCompiles(t *testing.T) map[string]*atomic.Int64 {
	t.Helper()
	counts := map[string]*atomic.Int64{}
	for _, w := range workloads.All() {
		src, n := w.Source, new(atomic.Int64)
		w.Source = func(scale int) string { n.Add(1); return src(scale) }
		counts[w.Name] = n
		t.Cleanup(func() { w.Source = src })
	}
	return counts
}

// compiled reports the workloads compiled since the last call, and resets
// the counters.
func compiled(counts map[string]*atomic.Int64) map[string]int64 {
	out := map[string]int64{}
	for name, n := range counts {
		if c := n.Swap(0); c > 0 {
			out[name] = c
		}
	}
	return out
}

// TestDifferentialPlanResume: -all runs every experiment as one plan that
// compiles each workload once (the ablation recompiles its workload per
// unroll factor). After one workload's fig8 and fus rows are dropped from
// the store, -resume recompiles only that workload and prints
// byte-identical output; a fully cached store compiles nothing.
func TestDifferentialPlanResume(t *testing.T) {
	counts := countCompiles(t)
	store := filepath.Join(t.TempDir(), "rows.log")
	args := []string{"-all", "-workloads", "xlispx,naskerx", "-max", "150000", "-autosave", store}

	code, want, stderr := runSpecrun(t, args...)
	if code != 0 {
		t.Fatalf("full run failed (%d):\n%s", code, stderr)
	}
	if got := compiled(counts); !reflect.DeepEqual(got, map[string]int64{"xlispx": 1, "naskerx": 1 + 4}) {
		t.Errorf("full run compiled %v, want each workload once plus naskerx once per unroll factor", got)
	}

	st, err := openStore(store, true)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"fig8/xlispx", "fus/xlispx"} {
		if err := st.drop(key); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.close(); err != nil {
		t.Fatal(err)
	}
	code, got, stderr := runSpecrun(t, append(args, "-resume")...)
	if code != 0 {
		t.Fatalf("resumed run failed (%d):\n%s", code, stderr)
	}
	if got != want {
		t.Errorf("resumed output differs from the full run\ngot:\n%s\nwant:\n%s", got, want)
	}
	if c := compiled(counts); !reflect.DeepEqual(c, map[string]int64{"xlispx": 1}) {
		t.Errorf("resume compiled %v, want only xlispx, once", c)
	}

	code, got, stderr = runSpecrun(t, append(args, "-resume")...)
	if code != 0 {
		t.Fatalf("fully cached run failed (%d):\n%s", code, stderr)
	}
	if got != want {
		t.Errorf("fully cached output differs from the full run\ngot:\n%s\nwant:\n%s", got, want)
	}
	if c := compiled(counts); len(c) != 0 {
		t.Errorf("fully cached run compiled %v, want nothing", c)
	}
}

// TestKeepGoingEveryExperiment: under -keep-going every experiment renders
// failed workloads as FAILED rows without panicking and exits 1, here with
// every workload timing out. The single-config experiments also run with
// the failure first and then second: -mem-budget 64k fails cc1x's analysis
// but not xlispx's, whose row and CSV still come out while cc1x gets no
// CSV. (The harness's TestKeepGoingRendersFailedRows covers the mixed case
// for every experiment.)
func TestKeepGoingEveryExperiment(t *testing.T) {
	for _, flag := range []string{"-table2", "-table3", "-table4", "-fig7", "-fig8", "-fus", "-lifetimes", "-branches"} {
		code, stdout, stderr := runSpecrun(t, flag, "-keep-going", "-workloads", "xlispx,naskerx", "-timeout", "1ns")
		if code != 1 || strings.Count(stdout, "FAILED: ") != 2 {
			t.Errorf("%s: exit code %d, want 1 and two FAILED rows\nstdout:\n%s\nstderr:\n%s", flag, code, stdout, stderr)
		}
	}
	for _, names := range []string{"cc1x,xlispx", "xlispx,cc1x"} {
		out := t.TempDir()
		code, stdout, stderr := runSpecrun(t, "-fig7", "-lifetimes", "-keep-going", "-workloads", names,
			"-max", "200000", "-mem-budget", "64k", "-out", out)
		if code != 1 || strings.Count(stdout, "FAILED: ") != 2 {
			t.Errorf("%s: exit code %d, want 1 and two FAILED rows\nstdout:\n%s\nstderr:\n%s", names, code, stdout, stderr)
		}
		if !strings.Contains(stdout, "xlispx parallelism profile (") {
			t.Errorf("%s: xlispx's profile is missing:\n%s", names, stdout)
		}
		for file, want := range map[string]bool{"fig7_xlispx.csv": true, "fig7_cc1x.csv": false, "fig7_.csv": false} {
			if _, err := os.Stat(filepath.Join(out, file)); (err == nil) != want {
				t.Errorf("%s: %s written = %v, want %v", names, file, err == nil, want)
			}
		}
	}
}
