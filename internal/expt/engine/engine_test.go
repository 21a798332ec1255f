package engine

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/expt"
	"repro/internal/expt/render"
	"repro/internal/expt/result"
	"repro/internal/rng"
)

// renderAll renders tables to full text + CSV (no masking).
func renderAll(t *testing.T, tables []*result.Table) string {
	t.Helper()
	var buf bytes.Buffer
	for _, tb := range tables {
		if err := render.Text(&buf, tb); err != nil {
			t.Fatal(err)
		}
		if err := render.CSV(&buf, tb); err != nil {
			t.Fatal(err)
		}
	}
	return buf.String()
}

// TestParallelMatchesSerialByteForByte is the engine's determinism
// contract: for every registered experiment and a fixed seed, a
// Workers=1 run, a Workers=8 run, and the serial reference executor all
// produce identical tables. Volatile (wall-clock) cells are masked via
// render.Fingerprint; experiments with no volatile content are
// additionally compared as full text+CSV bytes.
func TestParallelMatchesSerialByteForByte(t *testing.T) {
	if testing.Short() {
		t.Skip("full suite runs skipped with -short")
	}
	cfg := expt.Config{Seed: 7, Quick: true}
	for _, s := range expt.All() {
		s := s
		t.Run(s.Info().ID, func(t *testing.T) {
			t.Parallel()
			scens := []expt.Scenario{s}

			serial1 := Runner{Workers: 1}.Run(cfg, scens)
			parallel8 := Runner{Workers: 8}.Run(cfg, scens)
			reference, refErr := expt.Execute(cfg, s)
			if serial1[0].Err != nil || parallel8[0].Err != nil || refErr != nil {
				t.Fatalf("run failed: serial=%v parallel=%v reference=%v",
					serial1[0].Err, parallel8[0].Err, refErr)
			}

			fp1 := render.Fingerprint(serial1[0].Tables)
			fp8 := render.Fingerprint(parallel8[0].Tables)
			fpRef := render.Fingerprint(reference)
			if fp1 != fp8 {
				t.Errorf("workers=1 vs workers=8 fingerprints differ:\n--- serial ---\n%s\n--- parallel ---\n%s", fp1, fp8)
			}
			if fp1 != fpRef {
				t.Errorf("engine vs reference executor fingerprints differ")
			}

			volatile := false
			for _, tb := range serial1[0].Tables {
				volatile = volatile || tb.Volatile()
			}
			if !volatile {
				if renderAll(t, serial1[0].Tables) != renderAll(t, parallel8[0].Tables) {
					t.Errorf("full text+CSV output differs between worker counts")
				}
			} else if id := s.Info().ID; id != "E7" && id != "E13" && id != "E14" && id != "E15" && id != "E16" {
				t.Errorf("only E7 and E13–E16 (wall-clock scaling) may contain volatile cells, %s does too", id)
			}
		})
	}
}

// fake is a synthetic scenario for engine-behavior tests.
type fake struct {
	id   string
	plan func(cfg expt.Config) (*expt.Plan, error)
}

func (f fake) Info() expt.Info                          { return expt.Info{ID: f.id, Title: f.id, Claim: f.id} }
func (f fake) Plan(cfg expt.Config) (*expt.Plan, error) { return f.plan(cfg) }

func TestPlanErrorPropagates(t *testing.T) {
	boom := errors.New("boom")
	res := Runner{Workers: 2}.Run(expt.Config{}, []expt.Scenario{
		fake{id: "bad", plan: func(expt.Config) (*expt.Plan, error) { return nil, boom }},
	})
	if !errors.Is(res[0].Err, boom) {
		t.Errorf("plan error lost: %v", res[0].Err)
	}
	if FirstError(res) == nil {
		t.Error("FirstError missed the failure")
	}
}

// TestJobErrorIsDeterministic: when several jobs fail, the reported
// error is the lowest-indexed one regardless of completion order.
func TestJobErrorIsDeterministic(t *testing.T) {
	mk := func() expt.Scenario {
		return fake{id: "multi", plan: func(expt.Config) (*expt.Plan, error) {
			p := &expt.Plan{}
			tab := p.AddTable(&result.Table{ID: "T", Title: "t", Columns: []string{"a"}})
			for j := 0; j < 8; j++ {
				j := j
				p.Job(tab, func(*rng.Stream) (expt.RowOut, error) {
					if j%2 == 1 {
						return expt.RowOut{}, fmt.Errorf("job %d failed", j)
					}
					return expt.RowOut{Cells: []result.Cell{result.Int(j)}}, nil
				})
			}
			return p, nil
		}}
	}
	for _, workers := range []int{1, 8} {
		res := Runner{Workers: workers}.Run(expt.Config{}, []expt.Scenario{mk()})
		if res[0].Err == nil || !strings.Contains(res[0].Err.Error(), "job 1 failed") {
			t.Errorf("workers=%d: want lowest-indexed job error, got %v", workers, res[0].Err)
		}
	}
}

// TestRowOrderIsDeclarationOrder: rows land in job-declaration order
// even when workers complete them out of order.
func TestRowOrderIsDeclarationOrder(t *testing.T) {
	scen := fake{id: "order", plan: func(expt.Config) (*expt.Plan, error) {
		p := &expt.Plan{}
		tab := p.AddTable(&result.Table{ID: "T", Title: "t", Columns: []string{"i", "draw"}})
		for j := 0; j < 64; j++ {
			j := j
			p.Job(tab, func(s *rng.Stream) (expt.RowOut, error) {
				return expt.RowOut{Cells: []result.Cell{
					result.Int(j), result.Int(int(s.IntN(1 << 30))),
				}}, nil
			})
		}
		return p, nil
	}}
	res := Runner{Workers: 8}.Run(expt.Config{Seed: 3}, []expt.Scenario{scen})
	if res[0].Err != nil {
		t.Fatal(res[0].Err)
	}
	rows := res[0].Tables[0].Rows
	if len(rows) != 64 {
		t.Fatalf("got %d rows", len(rows))
	}
	for i, row := range rows {
		if row.Cells[0].I != int64(i) {
			t.Fatalf("row %d holds job %d's output", i, row.Cells[0].I)
		}
	}
	// And the keyed draws reproduce under a different worker count.
	res1 := Runner{Workers: 1}.Run(expt.Config{Seed: 3}, []expt.Scenario{scen})
	for i := range rows {
		if rows[i].Cells[1].I != res1[0].Tables[0].Rows[i].Cells[1].I {
			t.Fatalf("row %d draw differs between worker counts", i)
		}
	}
}

// TestRunStreamEmitsInOrder: emit fires once per scenario, in input
// order, with results identical to Run's, even when a plan fails.
func TestRunStreamEmitsInOrder(t *testing.T) {
	mkOK := func(id string) expt.Scenario {
		return fake{id: id, plan: func(expt.Config) (*expt.Plan, error) {
			p := &expt.Plan{}
			tab := p.AddTable(&result.Table{ID: id, Title: id, Columns: []string{"v"}})
			for j := 0; j < 4; j++ {
				p.Job(tab, func(s *rng.Stream) (expt.RowOut, error) {
					return expt.RowOut{Cells: []result.Cell{result.Int(int(s.IntN(100)))}}, nil
				})
			}
			return p, nil
		}}
	}
	scens := []expt.Scenario{
		mkOK("A"),
		fake{id: "B", plan: func(expt.Config) (*expt.Plan, error) { return nil, errors.New("nope") }},
		mkOK("C"),
	}
	var order []string
	streamed := Runner{Workers: 4}.RunStream(expt.Config{Seed: 5}, scens, func(res Result) {
		order = append(order, res.Info.ID)
	})
	if strings.Join(order, "") != "ABC" {
		t.Errorf("emit order %v, want A B C", order)
	}
	plain := Runner{Workers: 4}.Run(expt.Config{Seed: 5}, scens)
	for i := range scens {
		if (streamed[i].Err == nil) != (plain[i].Err == nil) {
			t.Errorf("scenario %d: stream err %v vs run err %v", i, streamed[i].Err, plain[i].Err)
		}
		if streamed[i].Err != nil {
			continue
		}
		if render.Fingerprint(streamed[i].Tables) != render.Fingerprint(plain[i].Tables) {
			t.Errorf("scenario %d: streamed tables differ from Run's", i)
		}
	}
}
