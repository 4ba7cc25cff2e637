package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// spec is BENCHMARK.json: the workloads and every metric with its unit,
// direction and regression bound.  The benchmark reads it at run time
// so the names, units and bounds it reports and gates on have one
// source.
type spec struct {
	RunSeconds int          `json:"run_seconds"`
	Workloads  []specLoad   `json:"workloads"`
	EndToEnd   []specMetric `json:"end_to_end"`
	PerLayer   []specMetric `json:"per_layer"`
}

type specLoad struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// specPath is where the benchmark runs from: the repository root.
const specPath = "BENCHMARK.json"

func loadSpec(path string) (*spec, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reading benchmark spec: %w", err)
	}
	var s spec
	if err := json.Unmarshal(blob, &s); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	return &s, nil
}

// metric looks a metric up by name in either list.
func (s *spec) metric(name string) (specMetric, bool) {
	for _, list := range [][]specMetric{s.EndToEnd, s.PerLayer} {
		for _, m := range list {
			if m.Name == name {
				return m, true
			}
		}
	}
	return specMetric{}, false
}
