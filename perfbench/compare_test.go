package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"testing"
)

var testSpec = &benchSpec{EndToEnd: []metricSpec{
	{Name: "events_per_s", Unit: "1/s", Better: "higher", Bound: 0.10},
	{Name: "job_p50_s", Unit: "s", Better: "lower", Bound: 0.10},
}}

func records(workload string, fp Fingerprint, eps, p50 []float64) []runRecord {
	var out []runRecord
	for i := range eps {
		f := fp
		f.Seed = int64(i + 1)
		out = append(out, runRecord{Fingerprint: f, Workload: workload,
			Metrics: map[string]float64{"events_per_s": eps[i], "job_p50_s": p50[i]}})
	}
	return out
}

var machine = Fingerprint{CPU: "Test CPU", NProc: 2, GOMAXPROCS: 2, GoVersion: "go1.24.0", Clients: 1}

func verdictOf(t *testing.T, vs []verdict, metric string) verdict {
	t.Helper()
	for _, v := range vs {
		if v.Metric == metric {
			return v
		}
	}
	t.Fatalf("no verdict for %s", metric)
	return verdict{}
}

func TestCompareVerdicts(t *testing.T) {
	steady := []float64{100, 101, 99, 100.5, 99.5, 100, 101, 99, 100.2, 99.8}
	lat := []float64{1, 1.01, 0.99, 1, 1, 1.02, 0.98, 1, 1.01, 0.99}
	scale := func(xs []float64, k float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * k
		}
		return out
	}
	for _, c := range []struct {
		name       string
		eps, p50   []float64
		wantEPS    string
		wantP50    string
		minWinsEPS float64
	}{
		{"same code", steady, lat, "no change", "no change", 0},
		{"faster", scale(steady, 1.2), scale(lat, 0.8), "gain", "gain", 1},
		{"slower", scale(steady, 0.8), scale(lat, 1.25), "regression", "regression", 0},
		{"small win", scale(steady, 1.005), lat, "no change", "no change", 0},
		{"noisy", []float64{50, 150, 80, 120, 60, 140, 70, 130, 90, 110}, lat, "unresolved", "no change", 0},
	} {
		base := records("w", machine, steady, lat)
		head := records("w", machine, c.eps, c.p50)
		vs, err := compareRuns(testSpec, base, head)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if v := verdictOf(t, vs, "events_per_s"); v.Verdict != c.wantEPS || v.WinFrac < c.minWinsEPS {
			t.Errorf("%s: events_per_s verdict %q (wins %.2f), want %q", c.name, v.Verdict, v.WinFrac, c.wantEPS)
		}
		if v := verdictOf(t, vs, "job_p50_s"); v.Verdict != c.wantP50 {
			t.Errorf("%s: job_p50_s verdict %q, want %q", c.name, v.Verdict, c.wantP50)
		}
	}
}

func TestCompareGainNeedsNineTenthsOfPairs(t *testing.T) {
	base := records("w", machine,
		[]float64{100, 100, 100, 100, 100, 100, 100, 100, 100, 100},
		[]float64{1, 1, 1, 1, 1, 1, 1, 1, 1, 1})
	// Medians move by 5% but two of ten pairs lose.
	head := records("w", machine,
		[]float64{105, 105, 105, 105, 105, 105, 105, 105, 99, 99},
		[]float64{1, 1, 1, 1, 1, 1, 1, 1, 1, 1})
	vs, err := compareRuns(testSpec, base, head)
	if err != nil {
		t.Fatal(err)
	}
	v := verdictOf(t, vs, "events_per_s")
	if v.WinFrac != 0.8 || v.Verdict == "gain" {
		t.Errorf("verdict %q with wins %.2f; 8/10 wins must not be a gain", v.Verdict, v.WinFrac)
	}
	if p := verdictOf(t, vs, "job_p50_s"); p.WinFrac != 0 || p.Verdict != "no change" {
		t.Errorf("ties: verdict %q wins %.2f, want no change with no wins", p.Verdict, p.WinFrac)
	}
}

func TestCompareRefusesDifferentMachines(t *testing.T) {
	xs := []float64{1, 2, 3}
	base := records("w", machine, xs, xs)
	for _, change := range []func(*Fingerprint){
		func(f *Fingerprint) { f.CPU = "Other CPU" },
		func(f *Fingerprint) { f.NProc = 4 },
		func(f *Fingerprint) { f.GOMAXPROCS = 1 },
		func(f *Fingerprint) { f.GoVersion = "go1.23.0" },
		func(f *Fingerprint) { f.Clients = 2 },
	} {
		other := machine
		change(&other)
		if _, err := compareRuns(testSpec, base, records("w", other, xs, xs)); !errors.Is(err, errFingerprint) {
			t.Errorf("fingerprint %+v vs %+v: err = %v, want refusal", machine, other, err)
		}
	}
	// A different commit is what a comparison is for, and each workload
	// has its own client count.
	other := machine
	other.Commit = "abc"
	if _, err := compareRuns(testSpec, base, records("w", other, xs, xs)); err != nil {
		t.Errorf("different commit refused: %v", err)
	}
	served := machine
	served.Clients = 2
	both := append(records("v", served, xs, xs), base...)
	if _, err := compareRuns(testSpec, both, both); err != nil {
		t.Errorf("workloads with different client counts refused: %v", err)
	}
}

func TestScanRecordsSkipsOtherLines(t *testing.T) {
	rec := runRecord{Fingerprint: machine, Workload: "w", Metrics: map[string]float64{"events_per_s": 1}}
	line, _ := json.Marshal(rec)
	in := "workload w\n  events_per_s 1 1/s\n" + string(line) + "\n{\"correct\":true}\n"
	got, err := scanRecords(bytes.NewBufferString(in))
	if err != nil || len(got) != 1 || got[0].Workload != "w" {
		t.Fatalf("scanRecords = %+v, %v", got, err)
	}
}
