package sim

import (
	"encoding/json"
	"math"
	"os"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/failure"
	"repro/internal/rng"
	"repro/internal/stats"
)

// shardTestPlans builds a small comparator workload: three plans over
// the same total work with different checkpoint densities.
func shardTestPlans() [][]core.Segment {
	seg := func(w, c, r float64) core.Segment { return core.Segment{Work: w, Checkpoint: c, Recovery: r} }
	return [][]core.Segment{
		{seg(10, 1, 0.5)},
		{seg(5, 1, 0.5), seg(5, 1, 0.5)},
		{seg(2.5, 1, 0.5), seg(2.5, 1, 0.5), seg(2.5, 1, 0.5), seg(2.5, 1, 0.5)},
	}
}

func sameSummary(a, b stats.Summary) bool {
	return a.N() == b.N() &&
		math.Float64bits(a.Mean()) == math.Float64bits(b.Mean()) &&
		math.Float64bits(a.Variance()) == math.Float64bits(b.Variance()) &&
		math.Float64bits(a.Min()) == math.Float64bits(b.Min()) &&
		math.Float64bits(a.Max()) == math.Float64bits(b.Max())
}

func sameMCResult(a, b MCResult) bool {
	return a.Runs == b.Runs &&
		sameSummary(a.Makespan, b.Makespan) &&
		sameSummary(a.Failures, b.Failures) &&
		sameSummary(a.Lost, b.Lost) &&
		sameSummary(a.Downtime, b.Downtime) &&
		sameSummary(a.RecoveryTime, b.RecoveryTime) &&
		sameSummary(a.Useful, b.Useful)
}

func sameCampaign(a, b CampaignResult) bool {
	if a.Runs != b.Runs || len(a.Results) != len(b.Results) || len(a.Delta) != len(b.Delta) {
		return false
	}
	for i := range a.Results {
		if !sameMCResult(a.Results[i], b.Results[i]) || !sameSummary(a.Delta[i], b.Delta[i]) {
			return false
		}
	}
	return true
}

// TestShardMergeBitIdentical is the S3 property: merge(shards(R, k)) is
// bit-identical to the single-shard run for every k, across failure
// laws, repair policies and worker counts, makespan histograms included
// — the block-fold determinism contract.
func TestShardMergeBitIdentical(t *testing.T) {
	weib, err := failure.NewWeibull(0.7, 40)
	if err != nil {
		t.Fatal(err)
	}
	logn, err := failure.NewLogNormal(3.2, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	factories := map[string]ProcessFactory{
		"exp":          ExponentialFactory(0.08),
		"weibull-min":  SuperposedFactory(weib, 8, failure.RejuvenateFailedOnly),
		"weibull-all":  SuperposedFactory(weib, 8, failure.RejuvenateAll),
		"lognormal":    SuperposedFactory(logn, 8, failure.RejuvenateFailedOnly),
		"lognormal-rj": SuperposedFactory(logn, 8, failure.RejuvenateAll),
	}
	plans := shardTestPlans()
	for name, factory := range factories {
		t.Run(name, func(t *testing.T) {
			base := ShardOptions{
				Options:   Options{Downtime: 0.3, Workers: 1},
				Seed:      9001,
				Runs:      1024,
				Shards:    1,
				BlockSize: 64,
			}
			ref, err := CampaignPlansSharded(plans, factory, base)
			if err != nil {
				t.Fatal(err)
			}
			if ref.Runs != base.Runs {
				t.Fatalf("reference ran %d of %d", ref.Runs, base.Runs)
			}
			for _, k := range []int{1, 2, 7, 16} {
				for _, workers := range []int{1, 4} {
					so := base
					so.Shards = k
					so.Workers = workers
					got, err := CampaignPlansSharded(plans, factory, so)
					if err != nil {
						t.Fatalf("k=%d workers=%d: %v", k, workers, err)
					}
					if !sameCampaign(ref, got) {
						t.Errorf("k=%d workers=%d: merged result differs from single-shard run (mean %v vs %v, delta1 %v vs %v)",
							k, workers, got.Results[0].Makespan.Mean(), ref.Results[0].Makespan.Mean(),
							got.Delta[1].Mean(), ref.Delta[1].Mean())
					}
					if a, b := digestBits(t, ref.Digests), digestBits(t, got.Digests); a != b {
						t.Errorf("k=%d workers=%d: merged digests differ from the single-shard run:\n%s\n%s", k, workers, b, a)
					}
				}
			}
		})
	}
}

// TestShardedMatchesMCMarginal sanity-checks the pipeline end to end:
// the sharded campaign's per-candidate mean agrees statistically with
// an independent MonteCarlo of the same factory.
func TestShardedMatchesMCMarginal(t *testing.T) {
	plans := shardTestPlans()
	factory := ExponentialFactory(0.08)
	so := ShardOptions{Options: Options{Downtime: 0.3, Workers: 1}, Seed: 7, Runs: 6000, Shards: 4}
	res, err := CampaignPlansSharded(plans, factory, so)
	if err != nil {
		t.Fatal(err)
	}
	mc, err := MonteCarlo(plans[0], factory, so.Options, 6000, rng.New(1234))
	if err != nil {
		t.Fatal(err)
	}
	ciC := res.Results[0].Makespan.CI(0.999)
	ciM := mc.Makespan.CI(0.999)
	if diff := math.Abs(res.Results[0].Makespan.Mean() - mc.Makespan.Mean()); diff > ciC+ciM {
		t.Errorf("sharded mean %v vs MC mean %v differ by %v (> %v)",
			res.Results[0].Makespan.Mean(), mc.Makespan.Mean(), diff, ciC+ciM)
	}
	// Digest median consistent with the summary range.
	med := res.Digests[0].Quantile(0.5)
	if med < res.Results[0].Makespan.Min() || med > res.Results[0].Makespan.Max() {
		t.Errorf("digest median %v outside [%v, %v]", med, res.Results[0].Makespan.Min(), res.Results[0].Makespan.Max())
	}
}

// countingFactory wraps a factory and counts invocations — the resume
// test uses it to prove finished blocks are loaded, not re-simulated.
func countingFactory(inner ProcessFactory, n *atomic.Int64) ProcessFactory {
	return func(r *rng.Stream) failure.Process {
		n.Add(1)
		return inner(r)
	}
}

// digestBits renders digests in their serialized form, which is exact:
// equal strings mean bit-identical sketches.
func digestBits(t *testing.T, ds []*stats.Histogram) string {
	t.Helper()
	data, err := json.Marshal(ds)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// spillTestOptions is the 16-block, 4-shard campaign the spill tests
// kill and resume.
func spillTestOptions(dir string, workers int) ShardOptions {
	return ShardOptions{
		Options:   Options{Downtime: 0.3, Workers: workers},
		Seed:      4242,
		Runs:      512,
		Shards:    4,
		BlockSize: 32, // 16 blocks, 4 per shard
		SpillDir:  dir,
	}
}

// TestShardSpillResume is the S3 resume property: kill a campaign
// mid-shard (simulated by removing one finished block file and the
// shard's result file), resume, and get the uninterrupted result
// bit-identically — with finished blocks loaded from their files
// rather than recomputed.
func TestShardSpillResume(t *testing.T) {
	plans := shardTestPlans()
	factory := ExponentialFactory(0.08)
	// Reference: uninterrupted spilled run.
	ref, err := CampaignPlansSharded(plans, factory, spillTestOptions(t.TempDir(), 1))
	if err != nil {
		t.Fatal(err)
	}
	// Interrupted run: shards 0 and 1 finish; shard 2 is killed after 3
	// of its blocks (8–11) finished; shard 3 never starts.
	dir := t.TempDir()
	so := spillTestOptions(dir, 1)
	for s := 0; s < 3; s++ {
		if _, err := CampaignPlansShard(plans, factory, so, s); err != nil {
			t.Fatal(err)
		}
	}
	for _, path := range []string{shardResultPath(dir, 2), blockPath(dir, 10)} {
		if err := os.Remove(path); err != nil {
			t.Fatal(err)
		}
	}

	var calls atomic.Int64
	counted := countingFactory(factory, &calls)
	resumed, err := CampaignPlansSharded(plans, counted, so)
	if err != nil {
		t.Fatal(err)
	}
	if !sameCampaign(ref, resumed) {
		t.Error("resumed campaign differs from uninterrupted run")
	}
	if a, b := digestBits(t, ref.Digests), digestBits(t, resumed.Digests); a != b {
		t.Errorf("resumed digests differ from the uninterrupted run:\n%s\n%s", b, a)
	}
	// Shards 0, 1 loaded from JSON (0 factory calls); shard 2 loaded 3
	// blocks (0 calls) and re-ran 1 (1 call); shard 3 ran 4 blocks
	// (4 calls). The exponential process is Resettable, so each live
	// block costs exactly one factory call.
	if got := calls.Load(); got != 5 {
		t.Errorf("resume made %d factory calls, want 5 (1 re-run + 4 fresh blocks)", got)
	}
}

// TestShardSpillWorkers: a spilled campaign is bit-identical at any
// worker count and to the in-memory campaign, digests included.
func TestShardSpillWorkers(t *testing.T) {
	plans := shardTestPlans()
	factory := ExponentialFactory(0.08)
	serial, err := CampaignPlansSharded(plans, factory, spillTestOptions(t.TempDir(), 1))
	if err != nil {
		t.Fatal(err)
	}
	pooled, err := CampaignPlansSharded(plans, factory, spillTestOptions(t.TempDir(), 4))
	if err != nil {
		t.Fatal(err)
	}
	if !sameCampaign(serial, pooled) {
		t.Error("spilled campaign at Workers 4 differs from Workers 1")
	}
	if a, b := digestBits(t, serial.Digests), digestBits(t, pooled.Digests); a != b {
		t.Errorf("spilled digests at Workers 4 differ from Workers 1:\n%s\n%s", b, a)
	}
	mem, err := CampaignPlansSharded(plans, factory, spillTestOptions("", 4))
	if err != nil {
		t.Fatal(err)
	}
	if !sameCampaign(mem, pooled) {
		t.Error("spilled campaign differs from the in-memory one")
	}
	if a, b := digestBits(t, mem.Digests), digestBits(t, pooled.Digests); a != b {
		t.Errorf("spilled digests differ from the in-memory ones:\n%s\n%s", b, a)
	}
}

// TestShardBlockFileRejected: a block file that is corrupt, foreign or
// inconsistent stops the resume with an error naming the file. It never
// panics and is never silently recomputed or overwritten.
func TestShardBlockFileRejected(t *testing.T) {
	plans := shardTestPlans()
	factory := ExponentialFactory(0.08)
	dir := t.TempDir()
	so := spillTestOptions(dir, 1)
	if _, err := CampaignPlansShard(plans, factory, so, 0); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(shardResultPath(dir, 0)); err != nil {
		t.Fatal(err)
	}
	path := blockPath(dir, 1)
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(good, &doc); err != nil {
		t.Fatal(err)
	}
	edit := func(key, value string) []byte {
		m := make(map[string]json.RawMessage, len(doc))
		for k, v := range doc {
			m[k] = v
		}
		m[key] = json.RawMessage(value)
		data, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	var agg BlockAggregate
	if err := json.Unmarshal(doc["aggregate"], &agg); err != nil {
		t.Fatal(err)
	}
	withAgg := func(mut func(*BlockAggregate)) []byte {
		a := agg
		mut(&a)
		data, err := json.Marshal(a)
		if err != nil {
			t.Fatal(err)
		}
		return edit("aggregate", string(data))
	}
	var digests []json.RawMessage
	if err := json.Unmarshal(doc["digests"], &digests); err != nil {
		t.Fatal(err)
	}
	foreign := mustFingerprint(t, ShardOptions{Seed: 99, Runs: so.Runs, Shards: so.Shards, BlockSize: so.BlockSize, Options: so.Options}, plans)
	foreignJSON, err := json.Marshal(foreign)
	if err != nil {
		t.Fatal(err)
	}
	var short stats.Histogram
	short.Add(1)
	shortJSON, err := json.Marshal(&short)
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string]struct {
		data []byte
		want string
	}{
		"empty":             {nil, "corrupt block file"},
		"truncated":         {good[:len(good)/2], "corrupt block file"},
		"garbage":           {[]byte("CHKTRACE\x00\x01"), "corrupt block file"},
		"foreign campaign":  {edit("fingerprint", string(foreignJSON)), "refusing to mix"},
		"wrong block":       {withAgg(func(a *BlockAggregate) { a.Block = 2 }), "index 2"},
		"wrong runs":        {withAgg(func(a *BlockAggregate) { a.Runs = 31 }), "holds 31 runs"},
		"missing candidate": {withAgg(func(a *BlockAggregate) { a.Results = a.Results[:2] }), "carries 2 candidates"},
		"missing digest":    {edit("digests", "["+string(digests[0])+","+string(digests[1])+"]"), "2 digests"},
		"null digest":       {edit("digests", "["+string(digests[0])+",null,"+string(digests[2])+"]"), "candidate 1 is missing"},
		"short digest":      {edit("digests", "["+string(digests[0])+","+string(shortJSON)+","+string(digests[2])+"]"), "covers 1 runs"},
		"bad digest":        {edit("digests", `[{"n":1,"bucket":[1047552],"count":[1]}]`), "corrupt block file"},
	}
	for name, tc := range cases {
		if err := os.WriteFile(path, tc.data, 0o644); err != nil {
			t.Fatal(err)
		}
		var calls atomic.Int64
		_, err := CampaignPlansShard(plans, countingFactory(factory, &calls), so, 0)
		if err == nil || !strings.Contains(err.Error(), path) || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want one naming %s and saying %q", name, err, path, tc.want)
		}
		if calls.Load() != 0 {
			t.Errorf("%s: resume simulated %d blocks before refusing the file", name, calls.Load())
		}
		if data, err := os.ReadFile(path); err != nil || string(data) != string(tc.data) {
			t.Errorf("%s: rejected block file was rewritten (err %v)", name, err)
		}
	}
}

// TestMergeShardsRejectsPartialDigests: a shard result read from disk
// must carry one digest per candidate, each covering the shard's runs;
// otherwise the merged quantiles would describe fewer runs than Runs.
func TestMergeShardsRejectsPartialDigests(t *testing.T) {
	plans := shardTestPlans()
	factory := ExponentialFactory(0.08)
	dir := t.TempDir()
	so := spillTestOptions(dir, 1)
	if err := WriteCampaignManifest(dir, mustFingerprint(t, so, plans)); err != nil {
		t.Fatal(err)
	}
	if _, err := CampaignPlansSharded(plans, factory, so); err != nil {
		t.Fatal(err)
	}
	path := shardResultPath(dir, 1)
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	parts, err := LoadCampaignDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := MergeShards(parts); err != nil {
		t.Fatalf("untouched directory: %v", err)
	}
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(good, &doc); err != nil {
		t.Fatal(err)
	}
	var digests []json.RawMessage
	if err := json.Unmarshal(doc["digests"], &digests); err != nil {
		t.Fatal(err)
	}
	// A block's digest is a valid sketch, but over one block's runs
	// rather than the shard's.
	blockDoc, err := os.ReadFile(blockPath(dir, 4))
	if err != nil {
		t.Fatal(err)
	}
	var blk struct {
		Digests []json.RawMessage `json:"digests"`
	}
	if err := json.Unmarshal(blockDoc, &blk); err != nil {
		t.Fatal(err)
	}
	for name, tc := range map[string]struct {
		digests string
		want    string
	}{
		"dropped digest": {"[" + string(digests[0]) + "," + string(digests[1]) + "]", "2 digests"},
		"null digest":    {"[" + string(digests[0]) + ",null," + string(digests[2]) + "]", "candidate 1 is missing"},
		"no digests":     {"null", "0 digests"},
		"block digest":   {"[" + string(digests[0]) + "," + string(blk.Digests[1]) + "," + string(digests[2]) + "]", "covers 32 runs, expected 128"},
	} {
		doc["digests"] = json.RawMessage(tc.digests)
		data, err := json.Marshal(doc)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		parts, err := LoadCampaignDir(dir)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if _, err := MergeShards(parts); err == nil || !strings.Contains(err.Error(), "shard 1") || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: merge error %v, want one about shard 1 saying %q", name, err, tc.want)
		}
	}
}

// TestShardFingerprintMismatches pins the loud-error contract on every
// cross-process seam.
func TestShardFingerprintMismatches(t *testing.T) {
	plans := shardTestPlans()
	factory := ExponentialFactory(0.08)
	base := ShardOptions{Options: Options{Workers: 1}, Seed: 1, Runs: 256, Shards: 2, BlockSize: 32}

	a0, err := CampaignPlansShard(plans, factory, base, 0)
	if err != nil {
		t.Fatal(err)
	}
	a1, err := CampaignPlansShard(plans, factory, base, 1)
	if err != nil {
		t.Fatal(err)
	}
	other := base
	other.Seed = 2
	b1, err := CampaignPlansShard(plans, factory, other, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := MergeShards([]*ShardResult{a0, b1}); err == nil || !strings.Contains(err.Error(), "fingerprints differ") {
		t.Errorf("mixed-seed merge: %v", err)
	}
	if _, err := MergeShards([]*ShardResult{a0}); err == nil || !strings.Contains(err.Error(), "missing 1") {
		t.Errorf("missing shard: %v", err)
	}
	if _, err := MergeShards([]*ShardResult{a0, a0}); err == nil || !strings.Contains(err.Error(), "twice") {
		t.Errorf("duplicate shard: %v", err)
	}
	if _, err := MergeShards(nil); err == nil {
		t.Error("empty merge accepted")
	}
	if _, err := MergeShards([]*ShardResult{a0, a1}); err != nil {
		t.Errorf("valid merge rejected: %v", err)
	}

	// A fingerprint read from disk that cannot describe a campaign is
	// refused before anything divides by or indexes with it.
	for name, mut := range map[string]func(*CampaignFingerprint){
		"zero block size": func(f *CampaignFingerprint) { f.BlockSize = 0 },
		"no candidates":   func(f *CampaignFingerprint) { f.Candidates = 0 },
	} {
		p0, p1 := *a0, *a1
		mut(&p0.Fingerprint)
		mut(&p1.Fingerprint)
		if _, err := MergeShards([]*ShardResult{&p0, &p1}); err == nil || !strings.Contains(err.Error(), "invalid campaign fingerprint") {
			t.Errorf("%s: %v", name, err)
		}
	}

	// Workload mismatch: same seed, different plans.
	otherPlans := shardTestPlans()
	otherPlans[0][0].Work *= 2
	c0, err := CampaignPlansShard(otherPlans, factory, base, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := MergeShards([]*ShardResult{c0, a1}); err == nil || !strings.Contains(err.Error(), "fingerprints differ") {
		t.Errorf("mixed-workload merge: %v", err)
	}

	// Spill-dir seams.
	dir := t.TempDir()
	so := base
	so.SpillDir = dir
	if _, err := CampaignPlansShard(plans, factory, so, 0); err != nil {
		t.Fatal(err)
	}
	// Result file from a different campaign.
	bad := so
	bad.Seed = 99
	if _, err := CampaignPlansShard(plans, factory, bad, 0); err == nil || !strings.Contains(err.Error(), "refusing to mix") {
		t.Errorf("foreign result file: %v", err)
	}
	// Block files from a different campaign (result gone, blocks remain).
	if err := os.Remove(shardResultPath(dir, 0)); err != nil {
		t.Fatal(err)
	}
	if _, err := CampaignPlansShard(plans, factory, bad, 0); err == nil || !strings.Contains(err.Error(), "block file") || !strings.Contains(err.Error(), "refusing to mix") {
		t.Errorf("foreign block file: %v", err)
	}
	// Manifest seam.
	if err := WriteCampaignManifest(dir, mustFingerprint(t, base, plans)); err != nil {
		t.Fatal(err)
	}
	if err := WriteCampaignManifest(dir, mustFingerprint(t, bad, plans)); err == nil || !strings.Contains(err.Error(), "already holds") {
		t.Errorf("manifest overwrite: %v", err)
	}

	// Option validation.
	for _, tc := range []ShardOptions{
		{Seed: 1, Runs: 0, Shards: 1},
		{Seed: 1, Runs: 100, Shards: 0},
		{Seed: 1, Runs: 100, Shards: 1, BlockSize: -3},
		{Seed: 1, Runs: 64, Shards: 8, BlockSize: 32}, // 2 blocks < 8 shards
	} {
		if _, err := CampaignPlansSharded(plans, factory, tc); err == nil {
			t.Errorf("options %+v accepted", tc)
		}
	}
	if _, err := CampaignPlansShard(plans, factory, base, 7); err == nil {
		t.Error("out-of-range shard accepted")
	}
	if _, err := CampaignPlansShard(nil, factory, base, 0); err == nil {
		t.Error("empty plan set accepted")
	}
}

func mustFingerprint(t *testing.T, so ShardOptions, plans [][]core.Segment) CampaignFingerprint {
	t.Helper()
	fp, err := so.resolve(plans)
	if err != nil {
		t.Fatal(err)
	}
	return fp
}

// TestShardWorkerDiscipline is the S1 oversubscription audit: when
// expt-style row jobs (an outer worker pool) invoke sharded campaigns
// with Workers: 1, total block concurrency never exceeds the outer pool
// size; and a default-Workers campaign alone never exceeds GOMAXPROCS.
func TestShardWorkerDiscipline(t *testing.T) {
	plans := shardTestPlans()
	factory := ExponentialFactory(0.08)
	var inFlight, peak atomic.Int64
	testHookBlock = func(enter bool) {
		if enter {
			v := inFlight.Add(1)
			for {
				p := peak.Load()
				if v <= p || peak.CompareAndSwap(p, v) {
					break
				}
			}
		} else {
			inFlight.Add(-1)
		}
	}
	defer func() { testHookBlock = nil }()

	const outer = 4
	var wg sync.WaitGroup
	for j := 0; j < outer; j++ {
		wg.Add(1)
		go func(j int) {
			defer wg.Done()
			so := ShardOptions{
				Options:   Options{Downtime: 0.3, Workers: 1},
				Seed:      uint64(j),
				Runs:      512,
				Shards:    2,
				BlockSize: 32,
			}
			if _, err := CampaignPlansSharded(plans, factory, so); err != nil {
				t.Error(err)
			}
		}(j)
	}
	wg.Wait()
	if p := peak.Load(); p > outer {
		t.Errorf("outer pool of %d with Workers:1 campaigns reached %d concurrent blocks", outer, p)
	}

	inFlight.Store(0)
	peak.Store(0)
	so := ShardOptions{Options: Options{Downtime: 0.3}, Seed: 5, Runs: 1024, Shards: 4, BlockSize: 32}
	if _, err := CampaignPlansSharded(plans, factory, so); err != nil {
		t.Fatal(err)
	}
	if maxProcs := int64(runtime.GOMAXPROCS(0)); peak.Load() > maxProcs {
		t.Errorf("default-Workers campaign reached %d concurrent blocks, GOMAXPROCS=%d", peak.Load(), maxProcs)
	}

	// Spilled campaigns spread their blocks over the same pool; the
	// same bound applies.
	inFlight.Store(0)
	peak.Store(0)
	so.SpillDir = t.TempDir()
	if _, err := CampaignPlansSharded(plans, factory, so); err != nil {
		t.Fatal(err)
	}
	if maxProcs := int64(runtime.GOMAXPROCS(0)); peak.Load() > maxProcs {
		t.Errorf("spilled campaign reached %d concurrent blocks, GOMAXPROCS=%d", peak.Load(), maxProcs)
	}
}
