package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// gate is one end-to-end metric as BENCHMARK.json declares it.
type gate struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// loadGates reads the end-to-end metrics and their bounds from
// BENCHMARK.json in the working directory, so the comparison and the
// driver gate on the same numbers.
func loadGates() ([]gate, error) {
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return nil, fmt.Errorf("-compare runs from the repository root: %w", err)
	}
	var doc struct {
		EndToEnd []gate `json:"end_to_end"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return doc.EndToEnd, nil
}

// loadRuns reads the measured results under path (one file, or every
// *.json in a directory) into workload → metric → one value per run.
func loadRuns(path string) (map[string]map[string][]float64, error) {
	files := []string{path}
	if fi, err := os.Stat(path); err != nil {
		return nil, err
	} else if fi.IsDir() {
		if files, err = filepath.Glob(filepath.Join(path, "*.json")); err != nil {
			return nil, err
		}
	}
	out := make(map[string]map[string][]float64)
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		var r result
		if err := json.Unmarshal(data, &r); err != nil || r.Measured == nil {
			continue // spans and traced results sit in the same directory
		}
		if out[r.Workload] == nil {
			out[r.Workload] = make(map[string][]float64)
		}
		for name, m := range r.Measured.Metrics {
			out[r.Workload][name] = append(out[r.Workload][name], m.Value)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no measured results", path)
	}
	return out, nil
}

// verdict classifies one workload × metric row. delta is how much
// worse b's median is than a's, as a share of a's (negative: better).
// A spread (quartile distance over median, either side) wider than the
// bound leaves the row unresolved: the runs cannot tell a regression
// of that size from noise.
func verdict(a, b []float64, g gate) (delta float64, v string) {
	ma, mb := median(a), median(b)
	delta = ratio(mb-ma, ma)
	if g.Better == "higher" {
		delta = -delta
	}
	switch {
	case iqrShare(a) > g.Bound || iqrShare(b) > g.Bound:
		v = "unresolved"
	case delta > g.Bound:
		v = "regressed"
	default:
		v = "ok"
	}
	return delta, v
}

// runCompare prints, per workload × end-to-end metric, both medians,
// the delta and the bound, and returns the exit code: 1 if any row
// regressed.
func runCompare(w io.Writer, pathA, pathB string) int {
	gates, err := loadGates()
	if err != nil {
		fatal(err)
	}
	a, err := loadRuns(pathA)
	if err != nil {
		fatal(err)
	}
	b, err := loadRuns(pathB)
	if err != nil {
		fatal(err)
	}
	code := 0
	fmt.Fprintf(w, "%-16s %-14s %5s %12s %12s %8s %7s %8s %8s  %s\n",
		"workload", "metric", "runs", "median a", "median b", "delta", "bound", "iqr a", "iqr b", "verdict")
	for _, sp := range specs {
		for _, g := range gates {
			va, vb := a[sp.name][g.Name], b[sp.name][g.Name]
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			delta, v := verdict(va, vb, g)
			if v == "regressed" {
				code = 1
			}
			fmt.Fprintf(w, "%-16s %-14s %2d/%-2d %12.4f %12.4f %+7.1f%% %6.1f%% %7.1f%% %7.1f%%  %s\n",
				sp.name, g.Name, len(va), len(vb), median(va), median(vb), 100*delta, 100*g.Bound,
				100*iqrShare(va), 100*iqrShare(vb), v)
		}
	}
	return code
}
