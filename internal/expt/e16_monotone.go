package expt

import (
	"time"

	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/expectation"
	"repro/internal/expt/result"
	"repro/internal/rng"
)

func init() {
	register(Info{
		ID:    "E16",
		Title: "Monotone-matrix DP vs the kernel scan: exact chain placement to n = 1,000,000",
		Claim: "on quadrangle-certified instances the totally-monotone arm returns the identical Proposition 3 optimum in O(n log n) oracle evaluations, opening chains three orders of magnitude past E13's sweep",
	}, planE16)
}

// E16 extends E13's solver study to the monotone-matrix arm. Like E13
// it mixes deterministic evidence with wall-clock cells: oracle
// evaluation counts, equality flags, optima and checkpoint counts
// reproduce bit-for-bit from the seed (both arms are deterministic and
// the certificate depends only on the instance), while timings and
// speedups are volatile. The kernel arm is pinned via
// SolveChainDPKernelStats and the monotone arm via
// SolveChainDPMonotoneStats, so the table measures the arms themselves
// rather than the dispatcher. Two failure regimes are swept because the
// kernel scan's pruned row length grows like log(n)/λw̄ — the rarer the
// failures, the further ahead each row must look, and the larger the
// monotone arm's win.
func planE16(cfg Config) (*Plan, error) {
	type combo struct {
		lambda float64
		n      int
	}
	sizes := []int{20000, 50000, 200000}
	denseN := 20000
	bigN := 1000000
	reps := 2
	if cfg.Quick {
		sizes = []int{2000, 10000}
		denseN = 2000
		bigN = 100000
		reps = 1
	}
	lambdas := []float64{0.01, 0.001}
	p := &Plan{}

	arms := p.AddTable(&result.Table{
		ID:      "E16",
		Title:   "monotone vs kernel arm (w∈[1,10], C∈[0.05,0.5]; best of repetitions)",
		Columns: []string{"mtbf", "n", "t_kernel", "t_monotone", "speedup", "evals_kernel", "evals_monotone", "eval_ratio", "identical", "ckpts", "certified"},
	})
	var combos []combo
	for _, lambda := range lambdas {
		for _, n := range sizes {
			combos = append(combos, combo{lambda, n})
		}
	}
	for _, cb := range combos {
		cb := cb
		p.Job(arms, func(s *rng.Stream) (RowOut, error) {
			cp, err := e16Problem(cb.lambda, cb.n, s)
			if err != nil {
				return RowOut{}, err
			}
			var tKern, tMono time.Duration
			var kern, mono core.ChainResult
			var kstats, mstats core.DPStats
			for rep := 0; rep < reps; rep++ {
				start := time.Now()
				kern, kstats, err = core.SolveChainDPKernelStats(cp)
				el := time.Since(start)
				if err != nil {
					return RowOut{}, err
				}
				if rep == 0 || el < tKern {
					tKern = el
				}
				start = time.Now()
				mono, mstats, err = core.SolveChainDPMonotoneStats(cp)
				el = time.Since(start)
				if err != nil {
					return RowOut{}, err
				}
				if rep == 0 || el < tMono {
					tMono = el
				}
			}
			identical := kern.Expected == mono.Expected && samePlacement(kern, mono)
			return RowOut{
				Cells: []result.Cell{
					result.Float(1 / cb.lambda), result.Int(cb.n),
					result.Dur(tKern), result.Dur(tMono),
					result.FixedUnit(float64(tKern)/float64(tMono), 1, "x").AsVolatile(),
					result.Int(int(kstats.Transitions)), result.Int(int(mstats.Transitions)),
					result.FixedUnit(float64(kstats.Transitions)/float64(mstats.Transitions), 1, "x"),
					result.Bool(identical), result.Int(len(mono.Positions())),
					result.Bool(mstats.Certified),
				},
				Value: identical,
			}, nil
		})
	}

	dense := p.AddTable(&result.Table{
		ID:      "E16",
		Title:   "dense anchor: the seed O(n²) loop vs both kernel-backed arms",
		Columns: []string{"mtbf", "n", "t_dense", "t_kernel", "t_monotone", "dense/monotone", "values_equal"},
	})
	for _, lambda := range lambdas {
		lambda := lambda
		p.Job(dense, func(s *rng.Stream) (RowOut, error) {
			cp, err := e16Problem(lambda, denseN, s)
			if err != nil {
				return RowOut{}, err
			}
			start := time.Now()
			den, err := core.SolveChainDPDense(cp)
			tDense := time.Since(start)
			if err != nil {
				return RowOut{}, err
			}
			start = time.Now()
			kern, err := core.SolveChainDPKernel(cp)
			tKern := time.Since(start)
			if err != nil {
				return RowOut{}, err
			}
			start = time.Now()
			mono, err := core.SolveChainDPMonotone(cp)
			tMono := time.Since(start)
			if err != nil {
				return RowOut{}, err
			}
			equal := mono.Expected == den.Expected && kern.Expected == den.Expected
			return RowOut{
				Cells: []result.Cell{
					result.Float(1 / lambda), result.Int(denseN),
					result.Dur(tDense), result.Dur(tKern), result.Dur(tMono),
					result.FixedUnit(float64(tDense)/float64(tMono), 1, "x").AsVolatile(),
					result.Bool(equal),
				},
				Value: equal,
			}, nil
		})
	}

	million := p.AddTable(&result.Table{
		ID:      "E16",
		Title:   "frontier solve: the monotone arm alone (the kernel scan is off the time budget here)",
		Columns: []string{"mtbf", "n", "t_monotone", "evals", "evals/n", "ckpts", "E_opt", "certified"},
	})
	for _, lambda := range lambdas {
		lambda := lambda
		p.Job(million, func(s *rng.Stream) (RowOut, error) {
			cp, err := e16Problem(lambda, bigN, s)
			if err != nil {
				return RowOut{}, err
			}
			start := time.Now()
			mono, stats, err := core.SolveChainDPMonotoneStats(cp)
			tMono := time.Since(start)
			if err != nil {
				return RowOut{}, err
			}
			return RowOut{
				Cells: []result.Cell{
					result.Float(1 / lambda), result.Int(bigN),
					result.Dur(tMono), result.Int(int(stats.Transitions)),
					result.Fixed(float64(stats.Transitions)/float64(bigN), 2),
					result.Int(len(mono.Positions())), result.Float(mono.Expected),
					result.Bool(stats.Certified),
				},
				Value: true,
			}, nil
		})
	}

	p.Finish = func(tables []*result.Table, outs []RowOut) error {
		allIdentical := true
		for j, job := range p.Jobs {
			if job.Table == arms || job.Table == dense {
				allIdentical = allIdentical && outs[j].Value.(bool)
			}
		}
		tables[arms].AddNote("monotone optimum and placement identical to the kernel arm on every row → %s", yn(allIdentical))
		tables[arms].AddNote("evals and eval_ratio are deterministic: both arms' scan shapes depend only on the instance, and the certificate is instance-only")
		tables[arms].AddNote("the kernel row scan must look ~log(n·λ·w̄)/λw̄ candidates ahead before its exact bound fires, so its advantage shrinks as failures get rarer; the monotone arm scans only the argmin window [x, next(x+1)] (a few candidates per row while segments are short) and hands over to an O(log n)-per-row candidate deque once a window outgrows 2⌈log₂(n+1)⌉")
		tables[million].AddNote("the pruned kernel scan would evaluate two to three orders of magnitude more transitions here (extrapolating the evals_kernel column above); the monotone arm keeps the frontier solve interactive")
		return nil
	}
	return p, nil
}

// e16Problem builds the E13-family workload at the given failure rate.
func e16Problem(lambda float64, n int, s *rng.Stream) (*core.ChainProblem, error) {
	m, err := expectation.NewModel(lambda, 0.5)
	if err != nil {
		return nil, err
	}
	g, err := dag.Chain(n, dag.DefaultWeights(), s.Split())
	if err != nil {
		return nil, err
	}
	cp, _, err := core.NewChainProblem(g, m, 0)
	if err != nil {
		return nil, err
	}
	return cp, nil
}

// samePlacement reports whether two chain results checkpoint after the
// same positions.
func samePlacement(a, b core.ChainResult) bool {
	if len(a.CheckpointAfter) != len(b.CheckpointAfter) {
		return false
	}
	for i := range a.CheckpointAfter {
		if a.CheckpointAfter[i] != b.CheckpointAfter[i] {
			return false
		}
	}
	return true
}
