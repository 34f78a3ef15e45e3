package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"testing"
)

// manifest is BENCHMARK.json as this package needs it.
type manifest struct {
	Command   []string `json:"command"`
	Paths     []string `json:"paths"`
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []gate `json:"end_to_end"`
	PerLayer []gate `json:"per_layer"`
}

func readManifest(t *testing.T) manifest {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	return m
}

func names(gs []gate) []string {
	out := make([]string, len(gs))
	for i, g := range gs {
		out[i] = g.Name
	}
	sort.Strings(out)
	return out
}

func sorted(s []string) []string {
	out := append([]string(nil), s...)
	sort.Strings(out)
	return out
}

// TestManifestMatchesProgram holds BENCHMARK.json and the program
// together: same workloads with the same reasons, same metric names.
func TestManifestMatchesProgram(t *testing.T) {
	m := readManifest(t)
	if len(m.Workloads) != len(specs) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program has %d", len(m.Workloads), len(specs))
	}
	for i, w := range m.Workloads {
		if w.Name != specs[i].name || w.Why != specs[i].why {
			t.Errorf("workload %d: manifest %q (%q), program %q (%q)", i, w.Name, w.Why, specs[i].name, specs[i].why)
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters, at most 200", w.Name, len(w.Why))
		}
	}
	if got, want := names(m.EndToEnd), sorted(endToEndNames); !reflect.DeepEqual(got, want) {
		t.Errorf("end_to_end names %v, program prints %v", got, want)
	}
	if got, want := names(m.PerLayer), sorted(layerNames); !reflect.DeepEqual(got, want) {
		t.Errorf("per_layer names %v, program prints %v", got, want)
	}
	for _, g := range m.EndToEnd {
		if g.Bound <= 0 || g.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", g.Name, g.Bound)
		}
	}
}

// TestSmoke runs what `go run ./bench -smoke` runs: every workload,
// measured and traced, on shrunken beds, with every correctness check.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("provisions eight small beds")
	}
	m := readManifest(t)
	out := t.TempDir()
	run, cfg, modes := smokeSet(specs, 15)
	e := env{Commit: "test", GoVersion: runtime.Version(), NProc: runtime.NumCPU(), Seed: 2008,
		Seconds: cfg.seconds, Clients: min(maxClients, runtime.NumCPU()), Sleep1msActualUs: 1100}
	for _, sp := range run {
		for _, mode := range modes {
			line, err := runOne(sp, e, cfg, mode, out)
			if err != nil {
				t.Fatalf("%s mode %d: %v", sp.name, mode, err)
			}
			if !line.Correct || line.Failed != 0 || line.Attempted < 1 {
				t.Errorf("%s mode %d: correct=%v attempted=%d failed=%d", sp.name, mode, line.Correct, line.Attempted, line.Failed)
			}
			want := names(m.EndToEnd)
			if mode == 1 {
				want = names(m.PerLayer)
			}
			if got := sortedKeys(line.Metrics); !reflect.DeepEqual(got, want) {
				t.Errorf("%s mode %d: metrics %v, manifest declares %v", sp.name, mode, got, want)
			}
			for name, v := range line.Metrics {
				if mode == 0 && !(v.Value > 0) {
					t.Errorf("%s: end-to-end metric %s = %v, must be positive", sp.name, name, v.Value)
				}
			}
		}
	}
	// The results just written compare clean against themselves.
	a, err := loadRuns(out)
	if err != nil {
		t.Fatal(err)
	}
	for _, sp := range specs {
		for _, g := range m.EndToEnd {
			if _, v := verdict(a[sp.name][g.Name], a[sp.name][g.Name], g); v != "ok" {
				t.Errorf("%s %s against itself: %s", sp.name, g.Name, v)
			}
		}
	}
}
