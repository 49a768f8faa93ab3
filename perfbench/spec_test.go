package main

import (
	"strings"
	"testing"
)

func TestBenchmarkJSONIsValid(t *testing.T) {
	spec, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	tf, err := loadTargets()
	if err != nil {
		t.Fatal(err)
	}
	listed := strings.Join(names, ",")
	for _, d := range tf.Dropped {
		if strings.Contains(","+listed+",", ","+d.Workload+",") || d.Why == "" {
			t.Errorf("dropped workload %s is listed or has no reason", d.Workload)
		}
		names = append(names, d.Workload)
	}
	for _, n := range names {
		if _, _, err := findWorkload(n); err != nil {
			t.Errorf("BENCHMARK.json or targets.json names %s: %v", n, err)
		}
	}
	if len(names) != len(workloadDefs) {
		t.Errorf("workloads listed or dropped %v, benchmark implements %d", names, len(workloadDefs))
	}
	var setup *metricSpec
	maxBound := 0.0
	for i, m := range spec.EndToEnd {
		if m.Name == "setup_s" {
			setup = &spec.EndToEnd[i]
		}
		maxBound = max(maxBound, m.Bound)
	}
	if setup == nil || setup.Unit != "s" || setup.Better != "lower" || setup.Bound != maxBound {
		t.Errorf("setup_s must be listed in s, lower is better, with the largest bound: %+v", setup)
	}
}

func TestSpecRejectsBadNames(t *testing.T) {
	s := &benchSpec{EndToEnd: []metricSpec{{Name: "bad name", Unit: "s", Better: "lower", Bound: 0.1}}}
	if s.validate() == nil {
		t.Error("a metric name with a space was accepted")
	}
	s = &benchSpec{EndToEnd: []metricSpec{{Name: "x", Unit: "s", Better: "lower", Bound: 0.1}, {Name: "x", Unit: "s", Better: "lower", Bound: 0.1}}}
	if s.validate() == nil {
		t.Error("a duplicate metric name was accepted")
	}
	s = &benchSpec{EndToEnd: []metricSpec{{Name: "x", Unit: "s", Better: "lower", Bound: 0.5}}}
	if s.validate() == nil {
		t.Error("a bound above 0.25 was accepted")
	}
}

// Every per-layer metric records the end-to-end metric and workload it
// should move, and every target names a real metric and workload.
func TestTargetsCoverEveryPerLayerMetric(t *testing.T) {
	spec, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	tf, err := loadTargets()
	if err != nil {
		t.Fatal(err)
	}
	workloads := make(map[string]bool)
	for _, w := range spec.Workloads {
		workloads[w.Name] = true
	}
	for _, d := range tf.Dropped {
		workloads[d.Workload] = true // targets name what a layer moves there once it returns
	}
	endToEnd := make(map[string]bool)
	for _, m := range spec.EndToEnd {
		endToEnd[m.Name] = true
	}
	listed := make(map[string]bool)
	for _, m := range spec.PerLayer {
		listed[m.Name] = true
		ts := tf.PerLayer[m.Name]
		if len(ts) == 0 {
			t.Errorf("per-layer metric %s has no target", m.Name)
		}
		for _, tg := range ts {
			if !endToEnd[tg.Metric] || !workloads[tg.Workload] {
				t.Errorf("%s targets unknown %s/%s", m.Name, tg.Metric, tg.Workload)
			}
		}
	}
	for name := range tf.PerLayer {
		if !listed[name] {
			t.Errorf("targets.json names %s, which BENCHMARK.json does not list", name)
		}
	}
	if len(tf.Supersedes) < 3 {
		t.Errorf("targets.json lists %d superseded legacy figures, want the batch replay, the analyzer throughputs and the Amdahl estimate", len(tf.Supersedes))
	}
}
