// Package expt is the experiment harness: it defines one runnable
// scenario per checkable claim of the paper (see DESIGN.md's
// per-experiment index, E1–E12) and produces typed result tables
// (internal/expt/result). The same scenarios back cmd/chkptbench and the
// root-level Go benchmarks, and their rendered outputs are the evidence
// recorded in EXPERIMENTS.md.
//
// A Scenario declares its work as a Plan: pre-shaped output tables plus
// a list of independent RowJobs, one per table row. Each job receives a
// private random stream keyed by (experiment ID, job index) — never by
// execution order — so the engine (internal/expt/engine) can run jobs on
// any number of workers and still reproduce the serial run bit-for-bit.
// Execute in this package is the serial reference implementation of
// those semantics.
package expt

import (
	"fmt"
	"sort"

	"repro/internal/expt/result"
	"repro/internal/rng"
)

// Config tunes an experiment run.
type Config struct {
	// Seed drives every random choice; equal seeds reproduce tables
	// bit-for-bit (up to volatile wall-clock cells; see DESIGN.md).
	Seed uint64
	// Quick trades Monte-Carlo precision for speed (used by `go test
	// -bench` so the full suite stays fast; the recorded tables use the
	// full budget).
	Quick bool
}

// Runs picks a Monte-Carlo budget: full when !Quick, reduced otherwise.
func (c Config) Runs(full, quick int) int {
	if c.Quick {
		return quick
	}
	return full
}

// Info identifies a scenario.
type Info struct {
	// ID is the index key ("E1".."E12").
	ID string
	// Title is a one-line description.
	Title string
	// Claim cites what part of the paper the scenario checks.
	Claim string
}

// RowOut is what one RowJob produces: the row's cells, optional row
// metadata, and an optional payload for the plan's Finish hook
// (pass/fail flags, intermediate values the notes aggregate over).
type RowOut struct {
	Cells []result.Cell
	Meta  map[string]string
	Value any
}

// RowJob computes one row of one table. Jobs within a plan are
// independent: they share no mutable state and draw randomness only from
// the keyed stream they are handed, so the engine may run them in any
// order and on any worker.
type RowJob struct {
	// Table indexes Plan.Tables.
	Table int
	// Run computes the row. s is derived from (seed, experiment ID, job
	// index) and is private to this job.
	Run func(s *rng.Stream) (RowOut, error)
}

// Plan is a scenario's declared work: the output tables with headers set
// and rows empty, the row jobs that fill them, and an optional Finish
// hook that runs after every job completed.
type Plan struct {
	Tables []*result.Table
	Jobs   []RowJob
	// Finish runs once all rows are in place, with outs in job order. It
	// typically aggregates job payloads into notes; it may also rewrite
	// cells that depend on neighbouring rows (e.g. timing ratios).
	Finish func(tables []*result.Table, outs []RowOut) error
}

// AddTable registers an output table and returns its index for RowJobs.
func (p *Plan) AddTable(t *result.Table) int {
	p.Tables = append(p.Tables, t)
	return len(p.Tables) - 1
}

// Job appends a row job for table index tab. Jobs targeting the same
// table fill its rows in the order they were added, regardless of the
// order they execute in.
func (p *Plan) Job(tab int, run func(s *rng.Stream) (RowOut, error)) {
	p.Jobs = append(p.Jobs, RowJob{Table: tab, Run: run})
}

// Scenario is a named, runnable reproduction of one paper claim in
// declared-input form.
type Scenario interface {
	Info() Info
	Plan(cfg Config) (*Plan, error)
}

// scenario is the registry's Scenario implementation.
type scenario struct {
	info Info
	plan func(cfg Config) (*Plan, error)
}

func (s scenario) Info() Info                     { return s.info }
func (s scenario) Plan(cfg Config) (*Plan, error) { return s.plan(cfg) }

var registry = map[string]Scenario{}

func register(info Info, plan func(cfg Config) (*Plan, error)) {
	if _, dup := registry[info.ID]; dup {
		panic("expt: duplicate experiment " + info.ID)
	}
	registry[info.ID] = scenario{info: info, plan: plan}
}

// All returns every scenario in ID order.
func All() []Scenario {
	out := make([]Scenario, 0, len(registry))
	for _, s := range registry {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool {
		// Numeric ordering of E1..E12.
		var a, b int
		fmt.Sscanf(out[i].Info().ID, "E%d", &a)
		fmt.Sscanf(out[j].Info().ID, "E%d", &b)
		return a < b
	})
	return out
}

// IDs returns every registered experiment ID in order.
func IDs() []string {
	all := All()
	ids := make([]string, len(all))
	for i, s := range all {
		ids[i] = s.Info().ID
	}
	return ids
}

// ByID looks a scenario up.
func ByID(id string) (Scenario, bool) {
	s, ok := registry[id]
	return s, ok
}

// hashID is FNV-1a over the experiment ID, the namespace component of
// job-stream keys.
func hashID(id string) uint64 {
	const (
		offset = 0xcbf29ce484222325
		prime  = 0x100000001b3
	)
	h := uint64(offset)
	for i := 0; i < len(id); i++ {
		h ^= uint64(id[i])
		h *= prime
	}
	return h
}

// JobStream derives the deterministic random stream for job index j of
// experiment id: rng.New(seed).Keyed(hash(id)).Keyed(j+1). The key chain
// depends only on (seed, id, j) — not on execution order or worker count
// — which is the engine's determinism contract.
func JobStream(cfg Config, id string, j int) *rng.Stream {
	return rng.New(cfg.Seed).Keyed(hashID(id)).Keyed(uint64(j) + 1)
}

// SetupStream derives the stream for plan-time setup (shared inputs such
// as a graph every row reuses). It is the reserved key 0 of the
// experiment's namespace, disjoint from every JobStream.
func SetupStream(cfg Config, id string) *rng.Stream {
	return rng.New(cfg.Seed).Keyed(hashID(id)).Keyed(0)
}

// Assemble places job outputs (in job order) into the plan's tables and
// runs the Finish hook. It validates the one-job-one-row invariant and
// row widths against the declared columns.
func (p *Plan) Assemble(outs []RowOut) ([]*result.Table, error) {
	if len(outs) != len(p.Jobs) {
		return nil, fmt.Errorf("expt: %d outputs for %d jobs", len(outs), len(p.Jobs))
	}
	for i, job := range p.Jobs {
		if job.Table < 0 || job.Table >= len(p.Tables) {
			return nil, fmt.Errorf("expt: job %d targets table %d of %d", i, job.Table, len(p.Tables))
		}
		t := p.Tables[job.Table]
		if len(outs[i].Cells) != len(t.Columns) {
			return nil, fmt.Errorf("expt: job %d produced %d cells for %d columns of table %q",
				i, len(outs[i].Cells), len(t.Columns), t.Title)
		}
		t.Rows = append(t.Rows, result.Row{Cells: outs[i].Cells, Meta: outs[i].Meta})
	}
	if p.Finish != nil {
		if err := p.Finish(p.Tables, outs); err != nil {
			return nil, err
		}
	}
	return p.Tables, nil
}

// yn formats a pass/fail flag inside note text ("yes"/"NO"), matching
// result.Bool's cell rendering.
func yn(ok bool) string {
	if ok {
		return "yes"
	}
	return "NO"
}

// Execute runs a scenario serially: plan, run each job with its keyed
// stream, assemble. It is the reference semantics that
// internal/expt/engine's parallel Runner must reproduce bit-for-bit.
func Execute(cfg Config, s Scenario) ([]*result.Table, error) {
	id := s.Info().ID
	plan, err := s.Plan(cfg)
	if err != nil {
		return nil, fmt.Errorf("expt: %s: plan: %w", id, err)
	}
	outs := make([]RowOut, len(plan.Jobs))
	for j, job := range plan.Jobs {
		out, err := job.Run(JobStream(cfg, id, j))
		if err != nil {
			return nil, fmt.Errorf("expt: %s: job %d: %w", id, j, err)
		}
		outs[j] = out
	}
	tables, err := plan.Assemble(outs)
	if err != nil {
		return nil, fmt.Errorf("expt: %s: %w", id, err)
	}
	return tables, nil
}
