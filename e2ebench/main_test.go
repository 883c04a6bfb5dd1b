package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// benchmarkJSON is the part of ../BENCHMARK.json the harness must honour.
type benchmarkJSON struct {
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

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	return bj
}

// tinyRun runs a workload shrunk to a few UEs per cell for a short
// window.
func tinyRun(t *testing.T, w workload, traced bool, closeAgentAfter time.Duration) *result {
	t.Helper()
	res, err := run(runConfig{
		w: w.tiny(), seed: 7, seconds: 400 * time.Millisecond, trace: traced,
		outDir: t.TempDir(), closeAgentAfter: closeAgentAfter,
	})
	if err != nil {
		t.Fatalf("%s: %v", w.Name, err)
	}
	return res
}

// TestMetricsMatchBenchmarkJSON runs every workload untraced and
// traced, and checks that each prints every declared metric with its
// declared unit, passes its correctness check, and that the traced run
// leaves its artefacts in a directory of its own. Every declared
// workload must exist; fleet16k exists without being declared.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	bj := readBenchmarkJSON(t)
	for _, decl := range bj.Workloads {
		if _, ok := findWorkload(decl.Name); !ok {
			t.Fatalf("workload %q declared but not implemented", decl.Name)
		}
	}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			res := tinyRun(t, w, traced, 0)
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v failed=%d/%d notes=%v",
					w.Name, traced, res.Correct, res.Failed, res.Attempted, res.Notes)
			}
			want := bj.EndToEnd
			if traced {
				want = bj.PerLayer
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok {
					t.Errorf("%s traced=%v: metric %s not printed", w.Name, traced, m.Name)
				} else if got.Unit != m.Unit {
					t.Errorf("%s traced=%v: metric %s unit %q, declared %q", w.Name, traced, m.Name, got.Unit, m.Unit)
				}
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: printed %d metrics, declared %d", w.Name, traced, len(res.Metrics), len(want))
			}
			if traced {
				for _, f := range []string{"cpu.pprof", "spans.jsonl", "program_spans.json", "telemetry.json", "result.json"} {
					if st, err := os.Stat(filepath.Join(res.OutPath, f)); err != nil || st.Size() == 0 {
						t.Errorf("%s: traced artefact %s missing or empty: %v", w.Name, f, err)
					}
				}
			}
		}
	}
}

// TestCheckCatchesLostAgent closes one agent mid-window: the reports it
// still emits never reach the tsdb, so the run must fail its check.
func TestCheckCatchesLostAgent(t *testing.T) {
	for _, name := range []string{"fleet16k", "xapp-loop"} {
		w, _ := findWorkload(name)
		res := tinyRun(t, w, false, 100*time.Millisecond)
		if res.Correct || res.Failed == 0 {
			t.Errorf("%s: closing an agent mid-window passed the check (failed=%d/%d)", name, res.Failed, res.Attempted)
		}
	}
}

func TestModuleOf(t *testing.T) {
	for fn, want := range map[string]string{
		"flexric/internal/ran.(*mac).scheduleUEs":                         "ran",
		"flexric/internal/encoding/asn1per.(*Writer).WriteBits":           "encoding",
		"type:.eq.flexric/internal/tsdb.SeriesKey":                        "tsdb",
		"slices.SortFunc[go.shape.[]*flexric/internal/ran.UE,go.shape.*]": "stdlib",
		"internal/runtime/maps.ctrlGroup.matchH2":                         "runtime",
		"runtime.mallocgc":      "runtime",
		"main.(*loop).onAppend": "bench",
		"sync.(*Mutex).Lock":    "stdlib",
	} {
		if got := moduleOf(fn); got != want {
			t.Errorf("moduleOf(%q) = %q, want %q", fn, got, want)
		}
	}
}
