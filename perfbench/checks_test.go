package main

import (
	"context"
	"encoding/json"
	"io"
	"os"
	"strings"
	"testing"
	"time"
)

// shortRun runs a workload for a two-second window with an optional
// planted fault.
func shortRun(t *testing.T, name string, inj *injector) *result {
	t.Helper()
	w, ok := findWorkload(name)
	if !ok {
		t.Fatalf("no workload %q", name)
	}
	res, err := run(context.Background(), runConfig{w: w, seed: 3, window: 2 * time.Second, inj: inj}, io.Discard)
	if err != nil {
		t.Fatalf("%s: run failed: %v", name, err)
	}
	if res.Attempted == 0 {
		t.Fatalf("%s: no operations attempted", name)
	}
	return res
}

// wantCaught asserts that a run with a planted fault is incorrect and
// that one of its failed checks mentions want.
func wantCaught(t *testing.T, res *result, want string) {
	t.Helper()
	if res.Correct {
		t.Fatalf("planted fault went unnoticed: result is correct")
	}
	for _, p := range res.Problems {
		if strings.Contains(p, want) {
			return
		}
	}
	t.Fatalf("no failed check mentions %q; failed checks: %q", want, res.Problems)
}

func TestCleanRunsPassEveryCheck(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			res := shortRun(t, w.name, nil)
			if !res.Correct || res.Failed != 0 {
				t.Fatalf("clean run: correct=%v failed=%d problems=%q", res.Correct, res.Failed, res.Problems)
			}
			for _, m := range res.Metrics {
				if m.Unit == "" {
					t.Errorf("metric without unit: %+v", m)
				}
			}
		})
	}
}

func TestCorruptedPaymentReplyIsCaught(t *testing.T) {
	res := shortRun(t, "write", &injector{kind: injectCorruptReply, after: 300})
	wantCaught(t, res, "payment ")
}

func TestCorruptedLookupReplyIsCaught(t *testing.T) {
	res := shortRun(t, "soap-http", &injector{kind: injectCorruptReply, after: 300})
	wantCaught(t, res, "lookup ")
}

func TestDoubleExecutionIsCaught(t *testing.T) {
	for _, name := range []string{"write", "failover"} {
		t.Run(name, func(t *testing.T) {
			res := shortRun(t, name, &injector{kind: injectDoubleExec, after: 100})
			wantCaught(t, res, "executed 2 times")
		})
	}
}

func TestMisreportedReadIndexIsCaught(t *testing.T) {
	res := shortRun(t, "read-mix", &injector{kind: injectStaleRead, after: 100})
	wantCaught(t, res, "below its read index")
}

func TestSplitCoordinatorViewIsCaught(t *testing.T) {
	res := shortRun(t, "failover", &injector{kind: injectSplitView})
	wantCaught(t, res, "did not agree on one running coordinator")
}

// TestBenchmarkSpecMatchesOutput checks BENCHMARK.json against what the
// program prints: the same workloads, and every metric with its unit in
// the untraced and the traced output, nothing more.
func TestBenchmarkSpecMatchesOutput(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type named struct{ Name, Unit string }
	var spec struct {
		Workloads []named `json:"workloads"`
		EndToEnd  []named `json:"end_to_end"`
		PerLayer  []named `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if _, ok := findWorkload(w.Name); !ok {
			t.Errorf("BENCHMARK.json workload %s is unknown to the program", w.Name)
		}
	}
	w, _ := findWorkload("read-mix")
	traced, err := run(context.Background(), runConfig{w: w, seed: 4, window: 2 * time.Second, trace: true}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		what  string
		want  []named
		got   map[string]metric
		names []string
	}{
		{"end-to-end", spec.EndToEnd, shortRun(t, "read-mix", nil).Metrics, endToEndNames},
		{"per-layer", spec.PerLayer, traced.Metrics, nil},
	} {
		if len(c.got) != len(c.want) {
			t.Errorf("%s: program prints %d metrics, BENCHMARK.json lists %d", c.what, len(c.got), len(c.want))
		}
		for _, m := range c.want {
			if got, ok := c.got[m.Name]; !ok || got.Unit != m.Unit {
				t.Errorf("%s metric %s (%s): program prints %+v", c.what, m.Name, m.Unit, got)
			}
		}
		for i, name := range c.names {
			if i >= len(c.want) || c.want[i].Name != name {
				t.Errorf("%s metric %d is %s in the program, not as in BENCHMARK.json", c.what, i, name)
			}
		}
	}
}
