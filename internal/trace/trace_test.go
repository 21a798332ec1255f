package trace

import (
	"bytes"
	"math"
	"sort"
	"strings"
	"testing"

	"repro/internal/failure"
	"repro/internal/rng"
)

func TestGenerate(t *testing.T) {
	e, _ := failure.NewExponential(0.1) // per-node MTBF 10
	tr, err := Generate(e, 16, 1000, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if tr.Nodes != 16 {
		t.Errorf("Nodes = %d", tr.Nodes)
	}
	if len(tr.Events) == 0 {
		t.Fatal("no events generated")
	}
	if !sort.SliceIsSorted(tr.Events, func(i, j int) bool { return tr.Events[i].Time < tr.Events[j].Time }) {
		t.Error("events not sorted")
	}
	for _, ev := range tr.Events {
		if ev.Time < 0 || ev.Time > 1000 || ev.Node < 0 || ev.Node >= 16 {
			t.Fatalf("bad event %+v", ev)
		}
	}
	// Platform MTBF ≈ 1/(16·0.1) = 0.625.
	if m := tr.MTBF(); math.Abs(m-0.625)/0.625 > 0.1 {
		t.Errorf("MTBF = %v, want ≈ 0.625", m)
	}
}

func TestGenerateValidation(t *testing.T) {
	e, _ := failure.NewExponential(1)
	if _, err := Generate(e, 0, 10, rng.New(1)); err == nil {
		t.Error("zero nodes should fail")
	}
	for _, h := range []float64{0, -1, math.NaN(), math.Inf(1)} {
		if _, err := Generate(e, 1, h, rng.New(1)); err == nil {
			t.Errorf("horizon %v should fail", h)
		}
	}
}

func TestPlatformGaps(t *testing.T) {
	tr := &Trace{
		Events: []Event{{Time: 2, Node: 0}, {Time: 5, Node: 1}, {Time: 6, Node: 0}},
		Nodes:  2,
	}
	gaps := tr.PlatformGaps()
	want := []float64{2, 3, 1}
	if len(gaps) != len(want) {
		t.Fatalf("gaps = %v", gaps)
	}
	for i := range want {
		if gaps[i] != want[i] {
			t.Errorf("gap %d = %v, want %v", i, gaps[i], want[i])
		}
	}
}

func TestCSVRoundTrip(t *testing.T) {
	e, _ := failure.NewExponential(0.5)
	tr, err := Generate(e, 4, 200, rng.New(2))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tr.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Nodes != tr.Nodes || len(back.Events) != len(tr.Events) {
		t.Fatalf("round trip changed shape: %d/%d nodes, %d/%d events",
			back.Nodes, tr.Nodes, len(back.Events), len(tr.Events))
	}
	for i := range tr.Events {
		if tr.Events[i] != back.Events[i] {
			t.Fatalf("event %d changed: %+v vs %+v", i, tr.Events[i], back.Events[i])
		}
	}
}

func TestReadCSVErrors(t *testing.T) {
	cases := []string{
		"",                             // empty
		"abc,0\n",                      // bad time
		"1.5\n",                        // missing node
		"1.5,x\n",                      // bad node
		"-1,0\n",                       // negative time
		"# nodes=1\n0.5,0\n1,5\n2,7\n", // nodes beyond the header's count
	}
	for i, c := range cases {
		if _, err := ReadCSV(strings.NewReader(c)); err == nil {
			t.Errorf("case %d should fail: %q", i, c)
		}
	}
}

func TestReadCSVUnsortedGetsSorted(t *testing.T) {
	in := "5,0\n1,1\n3,0\n"
	tr, err := ReadCSV(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if tr.Events[0].Time != 1 || tr.Events[2].Time != 5 {
		t.Errorf("events not sorted: %+v", tr.Events)
	}
	if tr.Nodes != 2 {
		t.Errorf("inferred nodes = %d, want 2", tr.Nodes)
	}
}

func TestProcessReplay(t *testing.T) {
	tr := &Trace{Events: []Event{{Time: 1, Node: 0}, {Time: 4, Node: 0}}, Nodes: 1}
	proc, err := tr.Process()
	if err != nil {
		t.Fatal(err)
	}
	if proc.NextFailure() != 1 {
		t.Errorf("first gap = %v", proc.NextFailure())
	}
	proc.ObserveFailure()
	if proc.NextFailure() != 3 {
		t.Errorf("second gap = %v", proc.NextFailure())
	}
	empty := &Trace{Nodes: 1}
	if _, err := empty.Process(); err == nil {
		t.Error("empty trace should not replay")
	}
}

func TestFitRecoversExponential(t *testing.T) {
	e, _ := failure.NewExponential(0.2)
	tr, err := Generate(e, 32, 20000, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	fit, err := tr.Fit()
	if err != nil {
		t.Fatal(err)
	}
	// Platform rate = 32 · 0.2 = 6.4.
	if math.Abs(fit.Exp.Lambda-6.4)/6.4 > 0.05 {
		t.Errorf("fitted platform λ = %v, want ≈ 6.4", fit.Exp.Lambda)
	}
	// Superposed exponentials stay exponential: Weibull shape ≈ 1.
	if math.Abs(fit.Weib.Shape-1) > 0.1 {
		t.Errorf("fitted shape = %v, want ≈ 1", fit.Weib.Shape)
	}
	if fit.MTBF <= 0 {
		t.Error("MTBF must be positive")
	}
}

func TestFitWeibullTraceHasSmallShape(t *testing.T) {
	// A Weibull k=0.7 single-node trace must fit back with k < 1
	// (decreasing hazard), which is what makes the extension matter.
	w, _ := failure.NewWeibull(0.7, 10)
	tr, err := Generate(w, 1, 200000, rng.New(4))
	if err != nil {
		t.Fatal(err)
	}
	fit, err := tr.Fit()
	if err != nil {
		t.Fatal(err)
	}
	if fit.Weib.Shape >= 0.85 {
		t.Errorf("fitted shape = %v, want ≈ 0.7", fit.Weib.Shape)
	}
}

// TestReadCSVMalformedRows extends the error-path coverage with the
// shapes real logs actually degrade into, and pins that the error names
// the offending line.
func TestReadCSVMalformedRows(t *testing.T) {
	cases := []struct {
		name, in, wantErr string
	}{
		{"extra field", "1,0,7\n", "line 1"},
		{"negative node", "1,-2\n", "line 1"},
		{"nan time", "NaN,0\n", "non-finite"},
		{"inf time", "+Inf,0\n", "non-finite"},
		{"bad row after good rows", "# header\n1,0\n2,0\nbroken row\n", "line 4"},
		{"float node", "1,0.5\n", "bad node"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := ReadCSV(strings.NewReader(c.in))
			if err == nil {
				t.Fatalf("accepted %q", c.in)
			}
			if !strings.Contains(err.Error(), c.wantErr) {
				t.Fatalf("error %q does not mention %q", err, c.wantErr)
			}
		})
	}
}

// TestReadCSVNonMonotoneTimes pins the repair contract for out-of-order
// logs: ReadCSV sorts rather than rejects, the event set is preserved,
// and the platform gaps of the sorted trace are all non-negative.
func TestReadCSVNonMonotoneTimes(t *testing.T) {
	in := "# nodes=3\n9,2\n1,0\n9,1\n4,0\n"
	tr, err := ReadCSV(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Events) != 4 || tr.Nodes != 3 {
		t.Fatalf("parsed %d events over %d nodes", len(tr.Events), tr.Nodes)
	}
	for i, g := range tr.PlatformGaps() {
		if g < 0 {
			t.Fatalf("gap %d negative after sort: %v", i, g)
		}
	}
	// Duplicate times are kept, not deduplicated.
	times := map[float64]int{}
	for _, e := range tr.Events {
		times[e.Time]++
	}
	if times[9] != 2 {
		t.Fatalf("duplicate-time events lost: %v", times)
	}
}
