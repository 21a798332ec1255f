package sim

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// FuzzDecodeBlock pins the campaign directory's decoders on arbitrary
// bytes written to a temp dir: decodeBlock, loadShardResult,
// ReadCampaignManifest and LoadCampaignDir never panic, and no count
// read from the bytes sizes an allocation or a loop. A block
// decodeBlock accepts is block 0 of the campaign with one usable digest
// per candidate over exactly its runs; a shard result loadShardResult
// accepts merges or is refused with an error; and a manifest
// ReadCampaignManifest accepts writes back to the same fingerprint, and
// a merge of the shards LoadCampaignDir finds under it, or of a bare
// shard carrying it, is refused or merges.
func FuzzDecodeBlock(f *testing.F) {
	plans := shardTestPlans()
	so := spillTestOptions(f.TempDir(), 1)
	// Two blocks of four runs in one shard: small seed files keep the
	// fuzzer's minimization of what it finds short.
	so.Runs, so.BlockSize, so.Shards = 8, 4, 1
	fp, err := so.resolve(plans)
	if err != nil {
		f.Fatal(err)
	}
	if _, err := CampaignPlansSharded(plans, ExponentialFactory(0.08), so); err != nil {
		f.Fatal(err)
	}
	if err := WriteCampaignManifest(so.SpillDir, fp); err != nil {
		f.Fatal(err)
	}
	// Histograms the decoder must refuse, each over a block's 4 runs
	// (bucket 1047552 holds 1, bucket 1048576 holds 2): buckets out of
	// order, repeated, empty or at +Inf's, counts that overflow or miss
	// n, and extremes outside the occupied buckets.
	badDigests := []string{
		`{"n":4,"min":1,"max":2,"bucket":[1048576,1047552],"count":[2,2]}`,
		`{"n":4,"min":1,"max":1,"bucket":[1047552,1047552],"count":[2,2]}`,
		`{"n":4,"min":1,"max":2,"bucket":[1047552,1048576],"count":[4,0]}`,
		`{"n":4,"min":1,"max":1,"bucket":[1047552,2096128],"count":[2,2]}`,
		`{"n":4,"min":1,"max":2,"bucket":[1047552,1048576],"count":[18446744073709551615,5]}`,
		`{"n":4,"min":1,"max":2,"bucket":[1047552,1048576],"count":[2,3]}`,
		`{"n":4,"min":0.5,"max":2,"bucket":[1047552,1048576],"count":[2,2]}`,
		`{"n":4,"min":1,"max":3,"bucket":[1047552,1048576],"count":[2,2]}`,
	}
	for _, path := range []string{blockPath(so.SpillDir, 0), shardResultPath(so.SpillDir, 0), filepath.Join(so.SpillDir, campaignManifestName)} {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
		var doc map[string]json.RawMessage
		if err := json.Unmarshal(data, &doc); err != nil {
			f.Fatal(err)
		}
		if doc["digests"] == nil {
			continue
		}
		for _, bad := range badDigests {
			doc["digests"] = json.RawMessage("[" + bad + "," + bad + "," + bad + "]")
			seed, err := json.Marshal(doc)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(seed)
		}
	}
	for _, s := range []string{
		`{"fingerprint":{"block_size":0,"candidates":1,"shards":1}}`,
		`{"fingerprint":{},"aggregate":{},"digests":[null]}`,
		// Counts a manifest may claim that would size a loop or an
		// allocation if the decoders trusted them.
		`{"fingerprint":{"runs":64,"block_size":1,"shards":60,"candidates":3}}`,
		`{"fingerprint":{"runs":1000000000000000,"block_size":1,"shards":1000000000000000,"candidates":3}}`,
		`{"fingerprint":{"runs":64,"block_size":32,"shards":1,"candidates":1000000000000}}`,
		`{nonsense`,
	} {
		f.Add([]byte(s))
	}
	// One directory per fuzzing process, rewritten by every input; the
	// manifest's write-back skips WriteCampaignManifest's fsyncs.
	dir, back := f.TempDir(), f.TempDir()
	f.Fuzz(func(t *testing.T, data []byte) {
		if agg, digests, err := decodeBlock("fuzz", data, fp, 0); err == nil {
			if agg.Block != 0 || len(agg.Results) != fp.Candidates || len(digests) != fp.Candidates {
				t.Fatalf("accepted block %d with %d results and %d digests, want block 0 and %d of each",
					agg.Block, len(agg.Results), len(digests), fp.Candidates)
			}
			acc := newDigests(len(digests))
			for c, d := range acc {
				d.Merge(digests[c])
				if d.N() != uint64(agg.Runs) {
					t.Fatalf("accepted digest folds to %v runs, want %d", d.N(), agg.Runs)
				}
				d.Quantile(0.5)
			}
		}
		// Every file decoder unmarshals first, so bytes that are not
		// JSON reach nothing past decodeBlock's unmarshal; skipping
		// their file writes keeps an input cheap enough to minimize.
		if !json.Valid(data) {
			return
		}
		for _, path := range []string{shardResultPath(dir, 0), filepath.Join(dir, campaignManifestName)} {
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		if res, err := loadShardResult(dir, fp, 0); err == nil && res != nil {
			if res.Fingerprint != fp || res.Shard != 0 {
				t.Fatalf("accepted shard %d of campaign %s", res.Shard, res.Fingerprint)
			}
			MergeShards([]*ShardResult{res})
		}
		if m, err := ReadCampaignManifest(dir); err == nil {
			enc, err := json.MarshalIndent(campaignManifest{Fingerprint: m}, "", "  ")
			if err != nil {
				t.Fatalf("accepted manifest does not encode: %v", err)
			}
			if err := os.WriteFile(filepath.Join(back, campaignManifestName), enc, 0o644); err != nil {
				t.Fatal(err)
			}
			if got, err := ReadCampaignManifest(back); err != nil || got != m {
				t.Fatalf("manifest round trip: %s, %v; want %s", got, err, m)
			}
			MergeShards([]*ShardResult{{Fingerprint: m}})
			if parts, err := LoadCampaignDir(dir); err == nil {
				MergeShards(parts)
			}
		}
	})
}
