package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"os"
	"testing"
)

// benchmarkFile is the part of ../BENCHMARK.json the catalog must match.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// TestSmoke runs every workload once at a tiny size, untraced and traced,
// and checks that every metric BENCHMARK.json names appears with its unit
// and that no iteration failed.
func TestSmoke(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(specs) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(bf.Workloads), len(specs))
	}
	for _, w := range bf.Workloads {
		if _, err := specByName(w.Name); err != nil {
			t.Errorf("BENCHMARK.json: %v", err)
		}
	}
	for _, traced := range []bool{false, true} {
		want := bf.EndToEnd
		catalog := endToEnd
		if traced {
			want, catalog = bf.PerLayer, perLayer
		}
		if len(want) != len(catalog) {
			t.Errorf("trace=%v: BENCHMARK.json names %d metrics, the benchmark reports %d", traced, len(want), len(catalog))
		}
		var stderr bytes.Buffer
		res, err := run(context.Background(), config{
			workloads: specs, seed: 7, seconds: 1e-3, trace: traced, smoke: true,
		}, io.Discard, &stderr)
		if err != nil {
			t.Fatalf("trace=%v: %v", traced, err)
		}
		if res.Failed != 0 || res.Attempted == 0 || !res.Correct {
			t.Fatalf("trace=%v: error rate %d/%d, correct=%v\n%s", traced, res.Failed, res.Attempted, res.Correct, stderr.String())
		}
		for _, sp := range specs {
			for _, m := range want {
				got, ok := res.Metrics[sp.name+"/"+m.Name]
				if !ok {
					t.Errorf("trace=%v: %s: metric %s missing", traced, sp.name, m.Name)
				} else if got.Unit != m.Unit {
					t.Errorf("trace=%v: %s: metric %s has unit %q, BENCHMARK.json says %q", traced, sp.name, m.Name, got.Unit, m.Unit)
				}
			}
		}
	}
}

// TestCovered pins the self-time arithmetic: overlapping children count
// once, and only inside the parent span.
func TestCovered(t *testing.T) {
	ivs := [][2]int64{{5, 8}, {0, 3}, {2, 4}, {20, 30}}
	if got := covered(ivs, 1, 25); got != 11 {
		t.Errorf("covered = %d, want 11", got)
	}
}
