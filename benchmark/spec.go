package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// BENCHMARK.json is the single statement of what the benchmark reports: the
// verdict line carries exactly the metrics it names for the run's mode, in
// the units it declares, and -compare applies its bounds. A metric the file
// names and the run did not produce is an error, not an omission.

// metricDef is one metric as BENCHMARK.json declares it. Bound is the share
// of the baseline median by which the metric may worsen before it counts as
// a regression; per-layer metrics explain a change and carry none.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// benchSpec is BENCHMARK.json.
type benchSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
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
	return &s, nil
}
