package core

import (
	"math"
	"math/bits"
	"testing"

	"repro/internal/dag"
	"repro/internal/expectation"
	"repro/internal/numeric"
	"repro/internal/rng"
)

// These property tests pin the monotone-matrix arm to the established
// solvers — the kernel scan (which shares its oracle bit-for-bit), the
// dense seed loop, the paper's memoized recursion, and brute force —
// across the regimes the satellite checklist names: weights and costs
// drawn from uniform/exponential/Weibull/log-normal laws, zero-cost
// checkpoints, the expm1 small-argument regime, and the exp-overflow
// boundary. They also pin the certifier-gated dispatch: certified
// instances take the monotone arm, uncertified instances demonstrably
// fall back to the kernel arm with identical results.

// drawPositive samples one nonnegative parameter from the law-indexed
// family (0 uniform, 1 exponential, 2 log-normal, 3 Weibull k=0.7), so
// the equivalence sweep covers heavy-tailed and concentrated instances
// alike.
func drawPositive(r *rng.Stream, law int, scale float64) float64 {
	switch law % 4 {
	case 0:
		return r.Range(0, scale)
	case 1:
		return scale * r.ExpFloat64()
	case 2:
		return scale * math.Exp(0.5*r.NormFloat64())
	default:
		u := r.Float64()
		return scale * math.Pow(-math.Log1p(-u+1e-300), 1/0.7)
	}
}

// randomLawChain draws a chain with parameters from the given law;
// zeroFrac zeroes individual weights/costs to exercise exact ties.
func randomLawChain(r *rng.Stream, n, law int, lambda, scale, zeroFrac float64) *ChainProblem {
	cp := &ChainProblem{
		Weights:         make([]float64, n),
		Ckpt:            make([]float64, n),
		Rec:             make([]float64, n),
		InitialRecovery: r.Range(0, scale/10),
		Model:           expectation.Model{Lambda: lambda, Downtime: r.Range(0, 2)},
	}
	draw := func(s float64) float64 {
		if r.Float64() < zeroFrac {
			return 0
		}
		return drawPositive(r, law, s)
	}
	for i := 0; i < n; i++ {
		cp.Weights[i] = draw(scale)
		cp.Ckpt[i] = draw(scale / 5)
		cp.Rec[i] = draw(scale / 5)
	}
	return cp
}

// certify runs the certifier on the problem's kernel.
func certify(t testing.TB, cp *ChainProblem) expectation.QICertificate {
	kern, err := cp.kernel()
	if err != nil {
		t.Fatal(err)
	}
	return kern.CertifyQuadrangle()
}

// checkChainEquivalence cross-checks every solver arm on one instance:
// the dispatching portfolio, the pinned kernel arm, the dense loop, and
// the recursion; on certified instances also the pinned monotone arm.
// The portfolio must reproduce the arm it dispatched to bit-for-bit.
func checkChainEquivalence(t *testing.T, tag string, cp *ChainProblem) {
	t.Helper()
	auto, stats, err := SolveChainDPStats(cp)
	if err != nil {
		t.Fatal(err)
	}
	kernel, err := SolveChainDPKernel(cp)
	if err != nil {
		t.Fatal(err)
	}
	dense, err := SolveChainDPDense(cp)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := SolveChainDPRecursive(cp)
	if err != nil {
		t.Fatal(err)
	}
	cert := certify(t, cp)
	if cert.Certified != (stats.Arm == ArmMonotone) {
		t.Fatalf("%s: certificate %v but dispatched arm %s", tag, cert.Certified, stats.Arm)
	}
	if cert.Certified {
		mono, mstats, err := SolveChainDPMonotoneStats(cp)
		if err != nil {
			t.Fatal(err)
		}
		if mono.Expected != auto.Expected && !(math.IsNaN(mono.Expected) && math.IsNaN(auto.Expected)) {
			t.Fatalf("%s: pinned monotone %v differs from dispatched portfolio %v", tag, mono.Expected, auto.Expected)
		}
		if mstats.Transitions != stats.Transitions {
			t.Fatalf("%s: pinned monotone evals %d vs portfolio %d", tag, mstats.Transitions, stats.Transitions)
		}
		checkAgainst(t, tag+": monotone vs kernel", cp, mono, kernel, true)
		checkAgainst(t, tag+": monotone vs dense", cp, mono, dense, true)
		checkAgainst(t, tag+": monotone vs recursive", cp, mono, rec, false)
	} else {
		// Uncertified: the portfolio must be the kernel arm, verbatim.
		if auto.Expected != kernel.Expected && !(math.IsNaN(auto.Expected) && math.IsNaN(kernel.Expected)) {
			t.Fatalf("%s: fallback Expected %v differs from kernel arm %v", tag, auto.Expected, kernel.Expected)
		}
		for i := range auto.CheckpointAfter {
			if auto.CheckpointAfter[i] != kernel.CheckpointAfter[i] {
				t.Fatalf("%s: fallback placement differs from kernel arm at %d", tag, i)
			}
		}
		if _, err := SolveChainDPMonotone(cp); err == nil {
			t.Fatalf("%s: pinned monotone arm accepted an uncertified instance", tag)
		}
		checkAgainst(t, tag+": kernel vs dense", cp, auto, dense, true)
	}
}

func TestMonotoneDPEquivalenceRandom(t *testing.T) {
	r := rng.New(606)
	lambdas := []float64{1e-9, 1e-6, 1e-3, 0.02, 0.3, 2}
	for trial := 0; trial < 120; trial++ {
		lambda := lambdas[trial%len(lambdas)]
		law := trial % 4
		n := 1 + int(r.Uint64()%48)
		cp := randomLawChain(r, n, law, lambda, 10, 0.1)
		checkChainEquivalence(t, "random law chain", cp)
	}
}

// TestMonotoneDPZeroCostCheckpoints drives the all-zero-checkpoint and
// mixed-zero regimes, where exact decision ties are common; both arms
// must still resolve them toward the earliest end position.
func TestMonotoneDPZeroCostCheckpoints(t *testing.T) {
	r := rng.New(707)
	for trial := 0; trial < 40; trial++ {
		n := 1 + int(r.Uint64()%30)
		cp := randomLawChain(r, n, trial, 0.05, 8, 0)
		for i := range cp.Ckpt {
			cp.Ckpt[i] = 0
			if trial%2 == 0 {
				cp.Rec[i] = 0
			}
		}
		if trial%2 == 0 {
			cp.InitialRecovery = 0
			// With C ≡ 0 the end table climbs by λw ≥ 0 and with R ≡ 0 the
			// start factor only decays, so these instances must certify.
			if c := certify(t, cp); !c.Certified {
				t.Fatalf("zero-cost chain must certify, got %q", c.Reason)
			}
		}
		checkChainEquivalence(t, "zero-cost checkpoints", cp)
	}
}

// TestMonotoneDPOverflowRegime mirrors TestKernelDPOverflowRegime for
// the monotone arm: λ(W+C) crossing numeric.MaxExpArg must keep the
// arms agreeing on representable plans (astronomically large values may
// straddle +Inf between placements, like kernel-vs-dense).
func TestMonotoneDPOverflowRegime(t *testing.T) {
	r := rng.New(808)
	for trial := 0; trial < 30; trial++ {
		n := 4 + int(r.Uint64()%12)
		cp := randomLawChain(r, n, trial, 1, 10, 0.05)
		var total float64
		for _, w := range cp.Weights {
			total += w
		}
		if total == 0 {
			continue
		}
		target := numeric.MaxExpArg * (0.5 + 1.5*r.Float64())
		scale := target / total
		for i := range cp.Weights {
			cp.Weights[i] *= scale
		}
		checkChainEquivalence(t, "overflow regime", cp)
	}
}

// TestMonotoneDPTinyLambda pins the expm1 regime λw ≪ 1: every oracle
// call takes the stable path, so on matching placements all arms are
// bit-identical to the dense reference.
func TestMonotoneDPTinyLambda(t *testing.T) {
	r := rng.New(909)
	for trial := 0; trial < 20; trial++ {
		n := 1 + int(r.Uint64()%30)
		cp := randomLawChain(r, n, trial, 1e-12, 5, 0.1)
		checkChainEquivalence(t, "expm1 regime", cp)
	}
}

// TestMonotoneDispatchFallback pins the dispatch contract on handmade
// instances from both sides of the certification boundary.
func TestMonotoneDispatchFallback(t *testing.T) {
	m := expectation.Model{Lambda: 0.1, Downtime: 0.5}
	certified := &ChainProblem{
		Weights: []float64{3, 4, 2, 5, 1},
		Ckpt:    []float64{0.5, 0.5, 0.5, 0.5, 0.5},
		Rec:     []float64{0.5, 0.5, 0.5, 0.5, 0.5},
		Model:   m,
	}
	_, stats, err := SolveChainDPStats(certified)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Arm != ArmMonotone || !stats.Certified {
		t.Fatalf("homogeneous instance: arm %s certified %v, want monotone/true", stats.Arm, stats.Certified)
	}

	// A checkpoint-cost drop larger than the next weight breaks the end
	// table's monotonicity → kernel fallback.
	drop := &ChainProblem{
		Weights: []float64{3, 0.1, 2, 5, 1},
		Ckpt:    []float64{9, 0.1, 0.5, 0.5, 0.5},
		Rec:     []float64{0.5, 0.5, 0.5, 0.5, 0.5},
		Model:   m,
	}
	res, stats, err := SolveChainDPStats(drop)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Arm != ArmKernel || stats.Certified {
		t.Fatalf("checkpoint-drop instance: arm %s certified %v, want kernel/false", stats.Arm, stats.Certified)
	}
	kres, kstats, err := SolveChainDPKernelStats(drop)
	if err != nil {
		t.Fatal(err)
	}
	if res.Expected != kres.Expected || stats.Transitions != kstats.Transitions {
		t.Fatalf("fallback result (%v, %d evals) differs from pinned kernel arm (%v, %d evals)",
			res.Expected, stats.Transitions, kres.Expected, kstats.Transitions)
	}

	// A recovery-cost jump larger than the task weight breaks the start
	// factor's monotonicity → kernel fallback.
	jump := &ChainProblem{
		Weights: []float64{3, 0.2, 2, 5, 1},
		Ckpt:    []float64{0.5, 0.6, 0.7, 0.8, 0.9},
		Rec:     []float64{0.1, 40, 0.5, 0.5, 0.5},
		Model:   m,
	}
	if _, stats, err = SolveChainDPStats(jump); err != nil {
		t.Fatal(err)
	}
	if stats.Arm != ArmKernel {
		t.Fatalf("recovery-jump instance dispatched to %s, want kernel", stats.Arm)
	}
	if _, err := SolveChainDPMonotone(jump); err == nil {
		t.Fatal("pinned monotone arm accepted an uncertified instance")
	}
}

// TestMonotoneMatchesKernelMedium locks the arms together on the E16
// workload family at a size large enough for thousands of decision
// rows: placements and reported values must be identical, which is what
// keeps the experiment fingerprints byte-stable under dispatch.
func TestMonotoneMatchesKernelMedium(t *testing.T) {
	for _, lambda := range []float64{0.01, 0.001} {
		r := rng.New(42)
		n := 4000
		cp := &ChainProblem{
			Weights:         make([]float64, n),
			Ckpt:            make([]float64, n),
			Rec:             make([]float64, n),
			InitialRecovery: 0,
			Model:           expectation.Model{Lambda: lambda, Downtime: 0.5},
		}
		for i := 0; i < n; i++ {
			cp.Weights[i] = r.Range(1, 10)
			cp.Ckpt[i] = r.Range(0.05, 0.5)
			cp.Rec[i] = cp.Ckpt[i]
		}
		mono, stats, err := SolveChainDPStats(cp)
		if err != nil {
			t.Fatal(err)
		}
		if stats.Arm != ArmMonotone {
			t.Fatalf("λ=%v: expected monotone dispatch, got %s", lambda, stats.Arm)
		}
		kern, err := SolveChainDPKernel(cp)
		if err != nil {
			t.Fatal(err)
		}
		if mono.Expected != kern.Expected {
			t.Fatalf("λ=%v: Expected %v vs kernel %v", lambda, mono.Expected, kern.Expected)
		}
		for i := range mono.CheckpointAfter {
			if mono.CheckpointAfter[i] != kern.CheckpointAfter[i] {
				t.Fatalf("λ=%v: placement differs at %d", lambda, i)
			}
		}
	}
}

// defaultWeightsChain is the E16 workload family: an n-task chain with
// dag.DefaultWeights under failure rate lambda and downtime 0.5.
func defaultWeightsChain(t testing.TB, n int, lambda float64) *ChainProblem {
	t.Helper()
	g, err := dag.Chain(n, dag.DefaultWeights(), rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	m, err := expectation.NewModel(lambda, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	cp, _, err := NewChainProblem(g, m, 0)
	if err != nil {
		t.Fatal(err)
	}
	return cp
}

// TestWindowRowsPaths pins the monotone arm's rows to the kernel scan's
// placements and values on the three shapes its two phases produce, and
// asserts which phase ran: short segments never leave the argmin-window
// scan; a chain whose head tasks are tiny hands over to the candidate
// deque mid-chain; and at λ = 1e-9, where one segment spans the chain,
// the windows grow by one row at a time until the first oversized one.
func TestWindowRowsPaths(t *testing.T) {
	const n = 3000
	limit := 2 * bits.Len(uint(n))
	// Constant C and R keep the mixed chain certified.
	mixed := defaultWeightsChain(t, n, 0.01)
	mixed.InitialRecovery = 0.5
	for i := range mixed.Weights {
		mixed.Ckpt[i], mixed.Rec[i] = 0.5, 0.5
		if i < n/2 {
			mixed.Weights[i] = 0.01
		}
	}
	for _, c := range []struct {
		name     string
		cp       *ChainProblem
		handover func(int) bool
	}{
		{"window scan only", defaultWeightsChain(t, n, 0.001), func(h int) bool { return h == -1 }},
		{"handover mid-chain", mixed, func(h int) bool { return h > 0 && h < n/2 }},
		{"handover at once", defaultWeightsChain(t, n, 1e-9), func(h int) bool { return h == n-1-limit }},
	} {
		kern, err := c.cp.kernel()
		if err != nil {
			t.Fatal(err)
		}
		if cert := kern.CertifyQuadrangle(); !cert.Certified {
			t.Fatalf("%s: not certified: %s", c.name, cert.Reason)
		}
		next, evals, handover := windowRows(kern)
		if !c.handover(handover) {
			t.Fatalf("%s: handover at row %d", c.name, handover)
		}
		got := chainResultFromNext(c.cp, kern, next)
		want, wstats, err := SolveChainDPKernelStats(c.cp)
		if err != nil {
			t.Fatal(err)
		}
		if got.Expected != want.Expected {
			t.Fatalf("%s: Expected %v, kernel arm %v", c.name, got.Expected, want.Expected)
		}
		for i := range got.CheckpointAfter {
			if got.CheckpointAfter[i] != want.CheckpointAfter[i] {
				t.Fatalf("%s: placement differs from the kernel arm at %d", c.name, i)
			}
		}
		t.Logf("%s: handover %d, %.2f evals/task (kernel arm %.2f), %d checkpoints",
			c.name, handover, float64(evals)/n, float64(wstats.Transitions)/n, len(got.Positions()))
	}
}

// TestMonotoneWorstCaseEvals pins the O(n log n) worst case: at λ = 1e-9
// one segment spans the 10⁵-task chain, every window outgrows the scan,
// and the candidate deque must stay within c·n·⌈log₂ n⌉ evaluations.
func TestMonotoneWorstCaseEvals(t *testing.T) {
	const n, c = 100000, 4
	cp := defaultWeightsChain(t, n, 1e-9)
	_, stats, err := SolveChainDPMonotoneStats(cp)
	if err != nil {
		t.Fatal(err)
	}
	logN := int64(bits.Len(uint(n - 1))) // ⌈log₂ n⌉
	if bound := c * n * logN; stats.Transitions > bound {
		t.Fatalf("%d evaluations, bound %d·n·⌈log₂ n⌉ = %d", stats.Transitions, c, bound)
	}
}

// TestBoundedMonotoneEquivalence pins the budgeted monotone arm to the
// kernel-scan arm and to brute force under every budget.
func TestBoundedMonotoneEquivalence(t *testing.T) {
	r := rng.New(1010)
	for trial := 0; trial < 30; trial++ {
		lambda := []float64{1e-6, 0.02, 0.5}[trial%3]
		n := 2 + int(r.Uint64()%14)
		cp := randomLawChain(r, n, trial, lambda, 8, 0.1)
		kern, err := cp.kernel()
		if err != nil {
			t.Fatal(err)
		}
		cert := kern.CertifyQuadrangle()
		for budget := 1; budget <= n; budget += 1 + n/4 {
			got, stats, err := SolveChainDPBoundedStats(cp, budget)
			if err != nil {
				t.Fatal(err)
			}
			wantArm := ArmKernel
			if cert.Certified {
				wantArm = ArmMonotone
			}
			if stats.Arm != wantArm {
				t.Fatalf("bounded dispatch arm %s, want %s", stats.Arm, wantArm)
			}
			// Cross-check against the other arm's layered decisions.
			kNext, _ := boundedKernelLayers(kern, min(budget, n))
			kRes, err := boundedResultFromNext(cp, kNext, min(budget, n))
			if err != nil {
				t.Fatal(err)
			}
			if math.IsInf(got.Expected, 1) && math.IsInf(kRes.Expected, 1) {
				continue
			}
			if numeric.RelErr(got.Expected, kRes.Expected) > 1e-11 {
				t.Fatalf("n=%d budget=%d: %s arm %v vs kernel layers %v", n, budget, stats.Arm, got.Expected, kRes.Expected)
			}
			if nCk := len(got.Positions()); nCk > budget {
				t.Fatalf("budget %d exceeded: %d checkpoints", budget, nCk)
			}
		}
	}
}

// FuzzChainDPMonotone fuzzes the full solver portfolio: any instance
// the fuzzer can construct must keep the dispatched arm, the pinned
// kernel arm, and the dense reference in agreement.
func FuzzChainDPMonotone(f *testing.F) {
	f.Add(uint64(1), uint(12), 0.02, 5.0, uint8(0))
	f.Add(uint64(2), uint(30), 1e-9, 10.0, uint8(1))
	f.Add(uint64(3), uint(7), 2.0, 100.0, uint8(2))
	f.Add(uint64(4), uint(20), 0.3, 0.01, uint8(3))
	f.Add(uint64(5), uint(3), 1.0, 2000.0, uint8(0))
	// Fuzzer-found boundary cases: huge-magnitude values where the
	// recursion's raw-weight final segment diverges from the prefix
	// arithmetic by several ulps of λ·P(n).
	f.Add(uint64(52), uint(129), 0.5555555555555556, 506.22222222222223, uint8(0x1a))
	f.Add(uint64(121), uint(7), 0.051666666666666666, 3477.0, uint8(0xe2))
	// Long segments over 13 tasks: the deque takes over after a few rows,
	// and an optimum ends at one of the handover window's smallest
	// candidates.
	f.Add(uint64(4), uint(76), 0.6, 0.016, uint8('j'))
	f.Fuzz(func(t *testing.T, seed uint64, n uint, lambda, scale float64, law uint8) {
		size := 1 + int(n%64)
		if !(lambda > 0) || math.IsInf(lambda, 0) || math.IsNaN(lambda) {
			t.Skip()
		}
		if !(scale >= 0) || math.IsInf(scale, 0) || scale > 1e12 {
			t.Skip()
		}
		cp := randomLawChain(rng.New(seed), size, int(law), lambda, scale, 0.15)
		checkChainEquivalence(t, "fuzz", cp)
	})
}

// splitKernelRows is the pruned kernel scan over row arrays of its own,
// leaving the kernel's start tables intact: the reference the in-place
// row solves (windowRows, solveChainKernelRows) must reproduce.
func splitKernelRows(kern *expectation.SegmentKernel) []int32 {
	kern.PrepareBound()
	n := kern.Len()
	best := make([]float64, n+1)
	next := make([]int32, n)
	for x := n - 1; x >= 0; x-- {
		e, j, _ := prunedRow(kern, x, best)
		best[x], next[x] = e, int32(j)
	}
	return next
}

// TestInPlaceRowsMatchSplitArrays pins the rows kept in the kernel's
// spent start tables on random certified instances, long-segment ones
// that hand over to the candidate deque included: the monotone solve's
// placement and Expected equal SolveChainDPKernel's (under the
// documented ulp-scale tie caveat), and the in-place kernel scan is the
// split-array scan bit for bit.
func TestInPlaceRowsMatchSplitArrays(t *testing.T) {
	r := rng.New(1111)
	lambdas := []float64{1e-9, 1e-4, 0.01, 0.3}
	certified, handovers := 0, 0
	for trial := 0; trial < 160; trial++ {
		lambda := lambdas[trial%len(lambdas)]
		n := 1 + int(r.Uint64()%300)
		cp := randomLawChain(r, n, trial/len(lambdas), lambda, 10, 0.05)
		if trial%2 == 0 { // constant costs certify whatever the weights
			c := cp.Ckpt[0]
			for i := range cp.Ckpt {
				cp.Ckpt[i], cp.Rec[i] = c, c
			}
			cp.InitialRecovery = c
		}
		kern, err := cp.kernel()
		if err != nil {
			t.Fatal(err)
		}
		if !kern.CertifyQuadrangle().Certified {
			continue
		}
		certified++
		next, _, handover := windowRows(kern)
		if handover >= 0 {
			handovers++
		}
		mono := chainResultFromNext(cp, kern, next)
		kernel, err := SolveChainDPKernel(cp)
		if err != nil {
			t.Fatal(err)
		}
		checkAgainst(t, "in-place monotone vs kernel arm", cp, mono, kernel, true)

		fresh, err := cp.kernel()
		if err != nil {
			t.Fatal(err)
		}
		want := chainResultFromNext(cp, fresh, splitKernelRows(fresh))
		if kernel.Expected != want.Expected && !(math.IsNaN(kernel.Expected) && math.IsNaN(want.Expected)) {
			t.Fatalf("trial %d: in-place kernel scan Expected %v, split arrays %v", trial, kernel.Expected, want.Expected)
		}
		for i := range want.CheckpointAfter {
			if kernel.CheckpointAfter[i] != want.CheckpointAfter[i] {
				t.Fatalf("trial %d: in-place kernel scan placement differs from split arrays at %d", trial, i)
			}
		}
	}
	if certified < 60 || handovers < 10 {
		t.Fatalf("%d certified instances, %d deque handovers: the sweep lost its coverage", certified, handovers)
	}
}

// TestKernelReinitAfterSpentStarts pins the Reinit-before-reuse rule:
// a kernel whose start tables a monotone solve spent, rebuilt with
// Reinit, is the fresh kernel again — every segment value, the
// certificate and the next solve's decisions bit for bit.
func TestKernelReinitAfterSpentStarts(t *testing.T) {
	const n = 400
	first := defaultWeightsChain(t, n, 1e-9) // hands over to the deque at once
	second := defaultWeightsChain(t, n, 0.01)
	second.InitialRecovery = 0.3
	for _, cp := range []*ChainProblem{first, second} {
		reused, err := first.kernel()
		if err != nil {
			t.Fatal(err)
		}
		if _, _, handover := windowRows(reused); handover < 0 {
			t.Fatal("the spending solve never reached the deque")
		}
		if err := reused.Reinit(cp.Model, cp.Weights, cp.Ckpt, cp.InitialRecovery, cp.Rec); err != nil {
			t.Fatal(err)
		}
		fresh, err := cp.kernel()
		if err != nil {
			t.Fatal(err)
		}
		for x := 0; x < n; x++ {
			for j := x; j < n; j++ {
				if a, b := reused.Segment(x, j), fresh.Segment(x, j); math.Float64bits(a) != math.Float64bits(b) {
					t.Fatalf("Segment(%d, %d): reused %v, fresh %v", x, j, a, b)
				}
			}
		}
		if a, b := reused.CertifyQuadrangle(), fresh.CertifyQuadrangle(); a != b {
			t.Fatalf("certificate: reused %+v, fresh %+v", a, b)
		}
		got, gotEvals, _ := windowRows(reused)
		want, wantEvals, _ := windowRows(fresh)
		if gotEvals != wantEvals {
			t.Fatalf("evaluations: reused %d, fresh %d", gotEvals, wantEvals)
		}
		for x := range want {
			if got[x] != want[x] {
				t.Fatalf("row %d: reused kernel chose %d, fresh %d", x, got[x], want[x])
			}
		}
	}
}
