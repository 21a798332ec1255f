package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// tinyConfig runs every workload in well under a second.
var tinyConfig = config{
	PlanChainN: 1000, PlanLambda: 0.001, DenseN: 200,
	DAGLayers: 4, DAGWidth: 5, TreeN: 10, CampaignReps: 100,
	ExecN: 64, ExecLambda: 0.05,
	SetupReps: 1, MinOps: 2,
}

// TestWorkloads runs every workload untraced and traced at tiny sizes:
// every check passes, every reported metric carries its unit, and the
// human-readable lines name every metric the summary reports.
func TestWorkloads(t *testing.T) {
	for _, name := range []string{"plan", "execute", "recover"} {
		for _, trace := range []bool{false, true} {
			var out bytes.Buffer
			opt := options{workload: name, seed: 7, seconds: 0.01, trace: trace}
			if trace {
				opt.spans = filepath.Join(t.TempDir(), "spans.json")
			}
			sum, err := run(tinyConfig, opt, &out)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			if !sum.Correct || sum.Failed != 0 || sum.Attempted < tinyConfig.MinOps+1 {
				t.Fatalf("%s trace=%v: correct=%v failed=%d attempted=%d\n%s", name, trace, sum.Correct, sum.Failed, sum.Attempted, out.String())
			}
			want := endToEnd
			if trace {
				want = perLayer()
			}
			if len(sum.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, want %d", name, trace, len(sum.Metrics), len(want))
			}
			for _, d := range want {
				if got, ok := sum.Metrics[d.name]; !ok || got.Unit != d.unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %s", name, trace, d.name, got, d.unit)
				}
			}
			for name, m := range sum.Metrics {
				if m.Value != 0 && !strings.Contains(out.String(), "metric "+name+" ") {
					t.Errorf("%s trace=%v: metric %s not printed", opt.workload, trace, name)
				}
			}
			if trace {
				data, err := os.ReadFile(opt.spans)
				if err != nil {
					t.Fatal(err)
				}
				var events []map[string]any
				if err := json.Unmarshal(data, &events); err != nil {
					t.Fatalf("%s: spans are not JSON: %v", name, err)
				}
				if (name == "plan") != (len(events) == 0) {
					t.Errorf("%s: %d spans", name, len(events))
				}
			}
		}
	}
}

// TestStageMetrics checks that each workload measures the stages that
// break its op down, and nothing else that is workload-specific.
func TestStageMetrics(t *testing.T) {
	stages := map[string][]string{
		"plan":    {"plan_chain_s", "plan_dag_s", "campaign_reps_per_s", "core.chain.solve_s", "core.dag.lattice_states", "sim.campaign_s"},
		"execute": {"run_s", "stored_bytes_per_task", "exec.events_per_task", "store.lease.validations", "store.remote.timeouts"},
		"recover": {"restart_s", "scrub_s", "sync_s", "store.quorum.scrub.repaired", "store.quorum.sync.copied"},
	}
	for name, want := range stages {
		wl, err := workloads[name].setup(tinyConfig, 3)
		if err != nil {
			t.Fatal(err)
		}
		m, _, err := wl.op(nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, k := range want {
			if m[k] <= 0 {
				t.Errorf("%s: %s = %v, want > 0", name, k, m[k])
			}
		}
		if m["op_s"] <= 0 {
			t.Errorf("%s: op_s = %v", name, m["op_s"])
		}
		if r := workloads[name].ref()(); r <= 0 {
			t.Errorf("%s: reference kernel took %v s", name, r)
		}
	}
}

// TestTracingKeepsJournals pins that probes never perturb an execution:
// traced and untraced ops produce identical journals and counters.
func TestTracingKeepsJournals(t *testing.T) {
	for _, name := range []string{"execute", "recover"} {
		wl, err := workloads[name].setup(tinyConfig, 11)
		if err != nil {
			t.Fatal(err)
		}
		_, plain, err := wl.op(nil)
		if err != nil {
			t.Fatal(err)
		}
		tr := newTracer()
		_, traced, err := wl.op(tr)
		if err != nil {
			t.Fatal(err)
		}
		if plain != traced {
			t.Errorf("%s: traced op differs:\n  untraced %s\n  traced   %s", name, plain, traced)
		}
		if len(tr.spans) == 0 {
			t.Errorf("%s: traced op recorded no spans", name)
		}
	}
}

// TestSelfTimeUnion checks that self time subtracts the union of the
// child spans, so overlapping children are not counted twice.
func TestSelfTimeUnion(t *testing.T) {
	children := []span{{start: 10, end: 30}, {start: 20, end: 40}, {start: 50, end: 60}, {start: 95, end: 120}}
	if got := coveredNS(children, 0, 100); got != 40 {
		t.Errorf("covered = %d, want 40", got)
	}
	tr := newTracer()
	tr.spans = []span{
		{layer: 2, op: opSave, start: 0, end: 100},
		{layer: 3, replica: 0, op: opSave, start: 10, end: 30},
		{layer: 3, replica: 1, op: opSave, start: 20, end: 40},
	}
	if got := tr.layerStats()[2][opSave].selfNS; got != 70 {
		t.Errorf("quorum self = %d, want 70", got)
	}
}

// TestBenchmarkJSON checks that BENCHMARK.json lists exactly the
// metrics the benchmark reports, with the same units.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, benchmark reports %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d] = %s %s, benchmark reports %s %s", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer())
}
