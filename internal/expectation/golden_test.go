package expectation_test

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/expectation"
	"repro/internal/rng"
)

// goldenChainN is the length of the golden instances: long enough that
// the monotone arm's window scan and its deque handover both run.
const goldenChainN = 1 << 14

// goldenChains returns the golden instances: a DefaultWeights chain and a
// homogeneous one (random weights, constant checkpoint and recovery
// costs), each under failure rate lambda and downtime 0.5.
func goldenChains(t *testing.T, lambda float64) map[string]*core.ChainProblem {
	t.Helper()
	m, err := expectation.NewModel(lambda, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	g, err := dag.Chain(goldenChainN, dag.DefaultWeights(), rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	def, _, err := core.NewChainProblem(g, m, 0)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(2)
	hom := &core.ChainProblem{
		Weights:         make([]float64, goldenChainN),
		Ckpt:            make([]float64, goldenChainN),
		Rec:             make([]float64, goldenChainN),
		InitialRecovery: 0.3,
		Model:           m,
	}
	for i := range hom.Weights {
		hom.Weights[i] = r.Range(0.5, 8)
		hom.Ckpt[i], hom.Rec[i] = 0.3, 0.3
	}
	return map[string]*core.ChainProblem{"default": def, "homogeneous": hom}
}

// TestKernelGolden pins the segment kernel and the chain solve bit for
// bit: a sha256 over Segment(x, j) for j ∈ [x, x+64) on every row, the
// pruning slack, and SolveChainDPStats's Expected bits, placement hash
// and oracle-evaluation count, plus the pruned kernel arm's Expected
// bits and evaluation count where segments are short. The figures were recorded before the
// kernel's batched build; any change to how the tables are computed
// must leave every one of them unchanged.
func TestKernelGolden(t *testing.T) {
	want := map[string]string{
		"default/0.1":       "seg=88966d43bbff44b5 slack=3ff000000045372c expected=410235c399f414bb place=f56124ba414d93bb transitions=32997 arm=monotone kernel=410235c399f414bb/246612",
		"homogeneous/0.1":   "seg=8bdb8b3c6267590b slack=3ff0000000451a91 expected=40faa59f12fe1043 place=9f1fd7a902864572 transitions=33668 arm=monotone kernel=40faa59f12fe1043/308240",
		"default/0.001":     "seg=ceaf5299a736bed2 slack=3ff000000044b975 expected=40f671290c212ba7 place=cbe8d20594a82598 transitions=70677 arm=monotone kernel=40f671290c212ba7/10638036",
		"homogeneous/0.001": "seg=d2022226f35c7875 slack=3ff000000044b92c expected=40f181590a9151d3 place=905ae9f57801d643 transitions=111986 arm=monotone kernel=40f181590a9151d3/12804994",
		"default/1e-07":     "seg=62fb74417596f7da slack=3ff000000044b834 expected=40f607cef5ab872d place=e781f0fa57e30c7a transitions=721237 arm=monotone",
		"homogeneous/1e-07": "seg=a42e024cb881a4f4 slack=3ff000000044b834 expected=40f111e0f807f964 place=8142b9596f92a0e0 transitions=93855 arm=monotone",
	}
	for _, lambda := range []float64{0.1, 1e-3, 1e-7} {
		for name, cp := range goldenChains(t, lambda) {
			key := fmt.Sprintf("%s/%v", name, lambda)
			k, err := expectation.NewSegmentKernel(cp.Model, cp.Weights, cp.Ckpt, cp.InitialRecovery, cp.Rec)
			if err != nil {
				t.Fatal(err)
			}
			seg := sha256.New()
			var buf [8]byte
			for x := 0; x < goldenChainN; x++ {
				for j := x; j < min(x+64, goldenChainN); j++ {
					binary.LittleEndian.PutUint64(buf[:], math.Float64bits(k.Segment(x, j)))
					seg.Write(buf[:])
				}
			}
			res, stats, err := core.SolveChainDPStats(cp)
			if err != nil {
				t.Fatal(err)
			}
			place := sha256.New()
			for _, p := range res.Positions() {
				binary.LittleEndian.PutUint32(buf[:4], uint32(p))
				place.Write(buf[:4])
			}
			got := fmt.Sprintf("seg=%x slack=%016x expected=%016x place=%x transitions=%d arm=%v",
				seg.Sum(nil)[:8], math.Float64bits(k.Slack()), math.Float64bits(res.Expected),
				place.Sum(nil)[:8], stats.Transitions, stats.Arm)
			if lambda >= 1e-3 {
				// The kernel arm's pruned scan is near-quadratic when
				// segments are long, so it runs on the short-segment
				// regimes only.
				kres, kstats, err := core.SolveChainDPKernelStats(cp)
				if err != nil {
					t.Fatal(err)
				}
				got += fmt.Sprintf(" kernel=%016x/%d", math.Float64bits(kres.Expected), kstats.Transitions)
			}
			if got != want[key] {
				t.Errorf("%s: got %q\n\twant %q", key, got, want[key])
			}
		}
	}
}
