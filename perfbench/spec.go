package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
)

// benchSpec holds the parts of BENCHMARK.json (at the repository root) the
// benchmark reads.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func loadSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if err := s.validate(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

func (s *benchSpec) validate() error {
	seen := make(map[string]bool)
	check := func(name string) error {
		if !validName(name) {
			return fmt.Errorf("invalid name %q", name)
		}
		if seen[name] {
			return fmt.Errorf("name %q used twice", name)
		}
		seen[name] = true
		return nil
	}
	for _, w := range s.Workloads {
		if err := check(w.Name); err != nil {
			return err
		}
	}
	for _, group := range [][]metricSpec{s.EndToEnd, s.PerLayer} {
		for _, m := range group {
			if err := check(m.Name); err != nil {
				return err
			}
			if m.Better != "lower" && m.Better != "higher" {
				return fmt.Errorf("metric %s: better must be lower or higher, not %q", m.Name, m.Better)
			}
		}
	}
	for _, m := range s.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			return fmt.Errorf("metric %s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	return nil
}

// targets.json records, for each per-layer metric, the end-to-end metrics
// and workloads it should move, and which legacy figures the ladder
// supersedes.
//
//go:embed targets.json
var targetsJSON []byte

type target struct {
	Metric   string `json:"metric"`
	Workload string `json:"workload"`
}

type targetFile struct {
	PerLayer   map[string][]target `json:"per_layer"`
	Supersedes []struct {
		Legacy string `json:"legacy"`
		By     string `json:"by"`
	} `json:"supersedes"`
	// Dropped lists workloads the benchmark implements but BENCHMARK.json
	// leaves out, with the measured spread that forced the drop.
	Dropped []struct {
		Workload string `json:"workload"`
		Why      string `json:"why"`
	} `json:"dropped"`
}

func loadTargets() (*targetFile, error) {
	var t targetFile
	if err := json.Unmarshal(targetsJSON, &t); err != nil {
		return nil, fmt.Errorf("targets.json: %w", err)
	}
	return &t, nil
}
