package sim

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/failure"
	"repro/internal/rng"
)

// scheduleFactories covers both replication paths of replicate: a
// Resettable process reset per replication, and one built anew per
// replication because it hides Reset.
func scheduleFactories(t *testing.T) map[string]ProcessFactory {
	t.Helper()
	weib, err := failure.NewWeibull(0.7, 30)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]ProcessFactory{
		"exponential": ExponentialFactory(0.05),
		"superposed":  SuperposedFactory(weib, 4, failure.RejuvenateFailedOnly),
		"non-resettable": func(r *rng.Stream) failure.Process {
			return nonResettable{failure.NewExponentialProcess(0.05, r)}
		},
	}
}

// TestOneSchedule pins the one sampling schedule: MonteCarlo is the
// one-candidate sharded campaign whose seed is drawn from one split of
// the caller's stream, and CampaignPlans is the sharded campaign's
// Results and Delta at any shard count, bit for bit.
func TestOneSchedule(t *testing.T) {
	plans := campaignPlans()
	opts := Options{Downtime: 0.5}
	const runs = 999
	for name, factory := range scheduleFactories(t) {
		mc, err := MonteCarlo(plans[0], factory, opts, runs, rng.New(3))
		if err != nil {
			t.Fatal(err)
		}
		one, err := CampaignPlansSharded(plans[:1], factory,
			ShardOptions{Options: opts, Seed: rng.New(3).Split().Uint64(), Runs: runs, Shards: 1})
		if err != nil {
			t.Fatal(err)
		}
		if !sameMCResult(mc, one.Results[0]) {
			t.Errorf("%s: MonteCarlo differs from the one-candidate sharded campaign", name)
		}

		camp, err := CampaignPlans(plans, factory, opts, runs, rng.New(5))
		if err != nil {
			t.Fatal(err)
		}
		if camp.Digests != nil {
			t.Errorf("%s: CampaignPlans filled digests", name)
		}
		for _, shards := range []int{1, 4} {
			sharded, err := CampaignPlansSharded(plans, factory,
				ShardOptions{Options: opts, Seed: rng.New(5).Split().Uint64(), Runs: runs, Shards: shards})
			if err != nil {
				t.Fatal(err)
			}
			if !sameCampaign(camp, sharded) {
				t.Errorf("%s: CampaignPlans differs from the campaign sharded %d ways", name, shards)
			}
		}
	}
}

// TestLoneCandidateRunsProcess pins the one-candidate branch of
// replicate: each block runs the factory's process directly — built
// once and reset per replication, or built per replication when it is
// not Resettable — with no recorded trace between it and Run.
func TestLoneCandidateRunsProcess(t *testing.T) {
	segs := campaignPlans()[0]
	opts := Options{Downtime: 0.5, Workers: 1}
	const runs, block = 80, 32 // blocks of 32, 32 and 16 runs
	for name, factory := range scheduleFactories(t) {
		var want MCResult
		seed := rng.New(9).Split().Uint64()
		for b := 0; b*block < runs; b++ {
			stream := rng.New(seed).Keyed(0).Keyed(uint64(b))
			var blk MCResult
			var proc failure.Process
			for rep := b * block; rep < runs && rep < (b+1)*block; rep++ {
				if res, ok := proc.(failure.Resettable); ok {
					res.Reset()
				} else {
					proc = factory(stream)
				}
				rs, err := Run(segs, proc, opts)
				if err != nil {
					t.Fatal(err)
				}
				blk.add(rs)
			}
			want.merge(blk)
		}
		got, err := MonteCarlo(segs, factory, opts, runs, rng.New(9))
		if err != nil {
			t.Fatal(err)
		}
		if !sameMCResult(got, want) {
			t.Errorf("%s: MonteCarlo mean %v, direct runs %v", name, got.Makespan.Mean(), want.Makespan.Mean())
		}
	}
}

// TestOldScheduleCampaignRefused: campaign files written under the
// first schedule version, which replayed a lone candidate through a
// recorded trace, carry another workload hash, so a resume refuses
// them instead of mixing two sample streams. The literal is that
// version's fingerprint of this one-plan campaign.
func TestOldScheduleCampaignRefused(t *testing.T) {
	plans := shardTestPlans()[:1]
	so := ShardOptions{Options: Options{Downtime: 0.3}, Seed: 7, Runs: 256, Shards: 1}
	old := CampaignFingerprint{Seed: 7, Runs: 256, BlockSize: 32, Shards: 1, Candidates: 1, Workload: "29a44452c160d67c"}
	fp := mustFingerprint(t, so, plans)
	if fp.Workload == old.Workload {
		t.Fatalf("workload hash %s is unchanged from the first schedule version", fp.Workload)
	}
	if fp.Workload = old.Workload; fp != old {
		t.Fatalf("fingerprint %s differs from %s beyond the workload hash", fp, old)
	}

	files := map[string]struct {
		name string
		doc  any
	}{
		"block": {"block-000000.json", blockFile{Fingerprint: old}},
		"shard": {"shard-0000.json", ShardResult{Fingerprint: old}},
	}
	for kind, f := range files {
		dir := t.TempDir()
		data, err := json.Marshal(f.doc)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, f.name), data, 0o644); err != nil {
			t.Fatal(err)
		}
		so.SpillDir = dir
		_, err = CampaignPlansShard(plans, ExponentialFactory(0.08), so, 0)
		if err == nil || !strings.Contains(err.Error(), f.name) || !strings.Contains(err.Error(), "refusing to mix") {
			t.Errorf("%s file of the old schedule: error %v, want a refusal naming %s", kind, err, f.name)
		}
	}

	dir := t.TempDir()
	if err := WriteCampaignManifest(dir, old); err != nil {
		t.Fatal(err)
	}
	if err := WriteCampaignManifest(dir, mustFingerprint(t, so, plans)); err == nil {
		t.Error("a manifest of the old schedule was accepted")
	}
}
