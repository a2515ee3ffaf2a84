package main

import (
	"encoding/json"
	"io"
	"os"
	"strings"
	"testing"
	"time"

	"osprey/internal/core"
)

var timeZero time.Time

func claimed(id int64, payload string) []core.Task {
	return []core.Task{{ID: id, Payload: payload}}
}

// tiny is a run small enough for a unit test: one repetition of 400 tasks.
// The queue stays deep enough that the pool's lead over the ME fits in the
// depth-drift tolerance (5% of the queued depth).
func tiny(t *testing.T, workload string, trace bool) config {
	t.Helper()
	cfg, err := parseFlags([]string{"--workload", workload, "--seed", "7", "--workdir", t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	cfg.tasks, cfg.reps, cfg.trace = 400, 1, trace
	if workloads[workload].deep {
		cfg.queued, cfg.complete = 8000, 200
	}
	return cfg
}

// TestMetricsEmitted runs every workload at a tiny size, untraced and
// traced, and checks that each named metric is emitted with its unit and
// that the output checks pass.
func TestMetricsEmitted(t *testing.T) {
	for name := range workloads {
		for _, trace := range []bool{false, true} {
			res, err := run(tiny(t, name, trace), io.Discard)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			if !res.Correct {
				t.Errorf("%s trace=%v: checks failed: %v", name, trace, res.problems)
			}
			if res.Attempted < 1 || res.Failed != 0 {
				t.Errorf("%s trace=%v: attempted %d failed %d", name, trace, res.Attempted, res.Failed)
			}
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics, want %d", name, trace, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.name]
				if !ok || m.Unit != d.unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %s", name, trace, d.name, m, d.unit)
				}
			}
			if !trace {
				for _, d := range endToEnd {
					if res.Metrics[d.name].Value <= 0 {
						t.Errorf("%s: end-to-end metric %s = %v, want > 0", name, d.name, res.Metrics[d.name].Value)
					}
				}
			}
		}
	}
}

// TestChecksRejectCorruptResult falsifies one collected result and expects
// the run to be reported incorrect.
func TestChecksRejectCorruptResult(t *testing.T) {
	for _, name := range []string{"single-shallow", "cluster-deep"} {
		cfg := tiny(t, name, false)
		cfg.corrupt = true
		res, err := run(cfg, io.Discard)
		if err != nil {
			t.Fatal(err)
		}
		if res.Correct {
			t.Fatalf("%s: a corrupted result passed the output checks", name)
		}
		if !strings.Contains(strings.Join(res.problems, "\n"), "collected result mismatch") {
			t.Errorf("%s: problems %q do not name the corrupted result", name, res.problems)
		}
	}
}

// TestLedgerChecks feeds the ledger each kind of wrong output directly.
func TestLedgerChecks(t *testing.T) {
	l := newLedger()
	l.submitted(1, "a")
	l.submitted(2, "b")
	l.claim(claimed(1, "a"))
	l.claim(claimed(1, "a"))
	l.claim(claimed(2, "x"))
	l.report(1, resultOf("a"), timeZero)
	l.report(2, "wrong", timeZero)
	l.collect(1, resultOf("a"))
	l.collect(3, "never reported")
	got := strings.Join(l.verify(), "\n")
	for _, want := range []string{"claimed more than once", "claimed payload mismatch",
		"reported result mismatch", "collected but never reported"} {
		if !strings.Contains(got, want) {
			t.Errorf("verify() = %q, missing %q", got, want)
		}
	}
}

// TestBenchmarkJSON checks that BENCHMARK.json at the repository root names
// exactly the workloads and metrics this program emits.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, the program %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q is unknown", w.Name)
		}
	}
	same := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(got), len(want))
			return
		}
		for i, d := range want {
			if got[i].Name != d.name || got[i].Unit != d.unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s %s, program %s %s", kind, i, got[i].Name, got[i].Unit, d.name, d.unit)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
}
