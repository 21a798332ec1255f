package sim

// Sharded, resumable CRN campaigns. The unit of determinism is the
// *block*: a campaign of R replications is split into fixed-size blocks
// whose count and contents depend only on (seed, runs, block size,
// round) — never on the shard count or worker count. Block b draws its
// randomness from the stateless derivation
//
//	rng.New(seed).Keyed(round).Keyed(b)
//
// and runs sim's one CRN replication loop (replicate) over its
// replications. A shard owns a contiguous range of blocks; merging
// folds the per-block partial aggregates in global block order.
// Because the fold units and the fold order are fixed, the merged means
// and paired deltas are bit-identical for ANY shard count and ANY
// worker count — including
// shards computed by separate processes and merged from their
// serialized results (Summary.Merge is not floating-point associative,
// so this property is exactly as strong as the fixed fold structure and
// no stronger). T-digest sketches fold per shard and are pinned
// *quantile-equivalent*, not bitwise, across shard counts; see
// stats.TDigest.
//
// Resumability rides on the same block structure: with a spill
// directory set, each finished block writes its aggregate and digests
// to a JSON file, and each finished shard its whole result. A killed
// campaign re-runs cheaply: finished shards load their results, and
// unfinished shards load their finished blocks and run only the
// missing ones. Block streams are stateless, so a block run after the
// kill draws exactly what it would have drawn before it.

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/failure"
	"repro/internal/fsx"
	"repro/internal/par"
	"repro/internal/rng"
	"repro/internal/stats"
)

// maxCampaignBlocks caps the number of blocks (and hence the per-block
// partial aggregates a merge retains) when the block size is derived
// automatically.
const maxCampaignBlocks = 4096

// minCampaignBlockSize keeps blocks from degenerating to a handful of
// replications, which would make the per-block setup (factory call,
// trace allocation) a measurable fraction of the work.
const minCampaignBlockSize = 32

// CampaignFingerprint pins the exact sampling schedule of a sharded
// campaign. Two invocations produce mergeable shards if and only if
// their fingerprints are equal; every cross-process entry point checks
// this and fails loudly on mismatch. Workers is deliberately absent:
// the block model makes results independent of the worker count.
type CampaignFingerprint struct {
	Seed       uint64 `json:"seed"`
	Runs       int    `json:"runs"`
	BlockSize  int    `json:"block_size"`
	Shards     int    `json:"shards"`
	Candidates int    `json:"candidates"`
	Round      uint64 `json:"round"`
	// Workload hashes the candidate plans and the option fields that
	// alter simulated trajectories (downtime, failure budget), so a
	// merge of shards simulated against different workloads is refused
	// even when their seeds agree.
	Workload string `json:"workload"`
}

// String renders the fingerprint for error messages.
func (f CampaignFingerprint) String() string {
	return fmt.Sprintf("seed=%d runs=%d block=%d shards=%d cands=%d round=%d workload=%s",
		f.Seed, f.Runs, f.BlockSize, f.Shards, f.Candidates, f.Round, f.Workload)
}

// numBlocks returns the block count of the campaign.
func (f CampaignFingerprint) numBlocks() int {
	return (f.Runs + f.BlockSize - 1) / f.BlockSize
}

// blockRange returns the half-open block interval owned by shard s:
// contiguous, balanced to within one block.
func (f CampaignFingerprint) blockRange(s int) (lo, hi int) {
	nb := f.numBlocks()
	return s * nb / f.Shards, (s + 1) * nb / f.Shards
}

// blockRuns returns the replication count of block b.
func (f CampaignFingerprint) blockRuns(b int) int {
	if lo := b * f.BlockSize; lo+f.BlockSize > f.Runs {
		return f.Runs - lo
	}
	return f.BlockSize
}

// ShardOptions configures a sharded campaign. The embedded Options are
// honoured as in CampaignPlans; Workers sets how many blocks run at
// once, which affects wall-clock time only.
type ShardOptions struct {
	Options
	// Seed is the campaign-level seed; shards derive their block
	// streams from it statelessly, so separate processes agree.
	Seed uint64
	// Runs is the total replication count across all shards.
	Runs int
	// Shards is the number of partitions (≥ 1).
	Shards int
	// BlockSize overrides the deterministic-fold unit; 0 derives
	// max(minCampaignBlockSize, ceil(Runs/maxCampaignBlocks)). The
	// resolved value is part of the fingerprint: merges across
	// different block sizes are refused.
	BlockSize int
	// Round salts every block stream; adaptive campaigns bump it per
	// round so extension rounds draw fresh randomness.
	Round uint64
	// SpillDir, when set, makes the campaign resumable: each block
	// writes its result to <dir>/block-NNNNNN.json as it finishes and
	// each shard its aggregate to <dir>/shard-NNNN.json when done. On
	// re-invocation, finished shards are loaded, and interrupted ones
	// load their finished blocks and run only the rest.
	SpillDir string
}

// resolve validates the options and computes the fingerprint.
func (so ShardOptions) resolve(plans [][]core.Segment) (CampaignFingerprint, error) {
	if so.Runs <= 0 {
		return CampaignFingerprint{}, fmt.Errorf("sim: run count must be positive, got %d", so.Runs)
	}
	if so.Shards <= 0 {
		return CampaignFingerprint{}, fmt.Errorf("sim: shard count must be positive, got %d", so.Shards)
	}
	if len(plans) == 0 {
		return CampaignFingerprint{}, fmt.Errorf("sim: campaign needs at least one candidate plan")
	}
	if so.Downtime < 0 {
		return CampaignFingerprint{}, fmt.Errorf("sim: negative downtime %v", so.Downtime)
	}
	bs := so.BlockSize
	if bs < 0 {
		return CampaignFingerprint{}, fmt.Errorf("sim: negative block size %d", so.BlockSize)
	}
	if bs == 0 {
		bs = (so.Runs + maxCampaignBlocks - 1) / maxCampaignBlocks
		if bs < minCampaignBlockSize {
			bs = minCampaignBlockSize
		}
	}
	fp := CampaignFingerprint{
		Seed:       so.Seed,
		Runs:       so.Runs,
		BlockSize:  bs,
		Shards:     so.Shards,
		Candidates: len(plans),
		Round:      so.Round,
		Workload:   workloadHash(plans, so.Options),
	}
	if nb := fp.numBlocks(); so.Shards > nb {
		return CampaignFingerprint{}, fmt.Errorf(
			"sim: %d shards exceed the campaign's %d blocks (runs=%d, block=%d); lower the shard count or the block size",
			so.Shards, nb, so.Runs, bs)
	}
	return fp, nil
}

// Fingerprint resolves the options against a candidate set and returns
// the campaign fingerprint — what a coordinating caller (e.g. a CLI
// writing a campaign manifest before dispatching shards to separate
// invocations) must agree on for the shards to merge.
func (so ShardOptions) Fingerprint(plans [][]core.Segment) (CampaignFingerprint, error) {
	return so.resolve(plans)
}

// workloadHash digests everything that shapes simulated trajectories:
// the candidate segment structure, the downtime and the failure budget.
func workloadHash(plans [][]core.Segment, opts Options) string {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v float64) {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
	put(opts.Downtime)
	binary.LittleEndian.PutUint64(buf[:], uint64(opts.maxFailures()))
	h.Write(buf[:])
	for _, plan := range plans {
		h.Write([]byte{0xff})
		for _, seg := range plan {
			put(seg.Work)
			put(seg.Checkpoint)
			put(seg.Recovery)
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// BlockAggregate is one block's partial campaign result: the fold unit
// of the cross-shard merge.
type BlockAggregate struct {
	Block   int             `json:"block"`
	Runs    int             `json:"runs"`
	Results []MCResult      `json:"results"`
	Delta   []stats.Summary `json:"delta"`
}

// ShardResult is one shard's complete output: per-block partials (kept
// separate so the merge can fold in global block order) plus
// per-candidate makespan digests folded over the shard's blocks.
type ShardResult struct {
	Fingerprint CampaignFingerprint `json:"fingerprint"`
	Shard       int                 `json:"shard"`
	Blocks      []BlockAggregate    `json:"blocks"`
	Digests     []*stats.TDigest    `json:"digests"`
}

// testHookBlock, when non-nil, brackets every block execution. The
// oversubscription audit uses it to measure peak block concurrency.
var testHookBlock func(enter bool)

// runBlock executes one block of the CRN loop on the block's own
// stream.
func runBlock(plans [][]core.Segment, factory ProcessFactory, opts Options, fp CampaignFingerprint, block int) (BlockAggregate, []*stats.TDigest, error) {
	if testHookBlock != nil {
		testHookBlock(true)
		defer testHookBlock(false)
	}
	digests := make([]*stats.TDigest, len(plans))
	for i := range digests {
		digests[i] = stats.NewTDigest(stats.DefaultTDigestCompression)
	}
	stream := rng.New(fp.Seed).Keyed(fp.Round).Keyed(uint64(block))
	agg, err := replicate(plans, factory, opts, stream, fp.blockRuns(block), digests)
	if err != nil {
		return BlockAggregate{}, nil, err
	}
	agg.Block = block
	return agg, digests, nil
}

// replicate is sim's one CRN replication loop: runs replications, each
// recording one failure trace from factory over stream and replaying it
// through every plan, the candidates in order so trace extension — and
// hence the stream draw order — is deterministic. One recorded trace is
// reused across replications (allocation-free in steady state) when the
// process is Resettable. When digests is non-nil each candidate's
// makespans are added to its digest.
func replicate(plans [][]core.Segment, factory ProcessFactory, opts Options, stream *rng.Stream, runs int, digests []*stats.TDigest) (BlockAggregate, error) {
	cands := len(plans)
	agg := BlockAggregate{
		Runs:    runs,
		Results: make([]MCResult, cands),
		Delta:   make([]stats.Summary, cands),
	}
	makespans := make([]float64, cands)
	src := factory(stream)
	_, resettable := src.(failure.Resettable)
	trace := failure.NewRecordedTrace(src)
	cursor := trace.Cursor()
	for rep := 0; rep < runs; rep++ {
		if rep > 0 {
			if resettable {
				trace.Reset()
			} else {
				// Processes that must differ structurally per
				// replication: one factory call each, as MonteCarlo does.
				trace = failure.NewRecordedTrace(factory(stream))
				cursor = trace.Cursor()
			}
		}
		for cand := 0; cand < cands; cand++ {
			cursor.Reset()
			rs, err := Run(plans[cand], cursor, opts)
			if err != nil {
				return BlockAggregate{}, err
			}
			agg.Results[cand].add(rs)
			if digests != nil {
				digests[cand].Add(rs.Makespan)
			}
			makespans[cand] = rs.Makespan
		}
		for cand := range agg.Delta {
			agg.Delta[cand].Add(makespans[cand] - makespans[0])
		}
	}
	return agg, nil
}

// foldBlockDigests folds per-block digests into the shard accumulators
// in block order (blocks arrive pre-sorted by the callers).
func foldBlockDigests(acc, block []*stats.TDigest) []*stats.TDigest {
	if acc == nil {
		acc = make([]*stats.TDigest, len(block))
		for i := range acc {
			acc[i] = stats.NewTDigest(stats.DefaultTDigestCompression)
		}
	}
	for i := range acc {
		acc[i].Merge(block[i])
	}
	return acc
}

// CampaignPlansShard runs the blocks owned by one shard of a sharded
// CRN campaign and returns that shard's partial result. Shards are
// independent: separate processes may each run one (sharing only the
// ShardOptions) and merge the results with MergeShards. The shard's
// blocks spread over the worker pool; their results land in a slice
// indexed by block, so the fold order is independent of scheduling.
//
// With SpillDir set the shard is resumable: an existing result file for
// the same fingerprint is returned as-is, finished block files are
// loaded, and only the missing blocks run. A result or block file
// written under a different fingerprint is a loud error, never
// silently recomputed.
func CampaignPlansShard(plans [][]core.Segment, factory ProcessFactory, so ShardOptions, shard int) (*ShardResult, error) {
	fp, err := so.resolve(plans)
	if err != nil {
		return nil, err
	}
	if shard < 0 || shard >= fp.Shards {
		return nil, fmt.Errorf("sim: shard %d out of range [0, %d)", shard, fp.Shards)
	}
	if so.SpillDir != "" {
		if err := os.MkdirAll(so.SpillDir, 0o755); err != nil {
			return nil, err
		}
		if prior, err := loadShardResult(so.SpillDir, fp, shard); prior != nil || err != nil {
			return prior, err
		}
	}
	lo, hi := fp.blockRange(shard)
	n := hi - lo
	out := &ShardResult{Fingerprint: fp, Shard: shard, Blocks: make([]BlockAggregate, n)}
	digests := make([][]*stats.TDigest, n)
	err = par.Each(so.Workers, n, func(_, i int) error {
		var err error
		out.Blocks[i], digests[i], err = shardBlock(plans, factory, so, fp, lo+i)
		return err
	})
	if err != nil {
		return nil, err
	}
	for _, dig := range digests {
		out.Digests = foldBlockDigests(out.Digests, dig)
	}
	if so.SpillDir == "" {
		return out, nil
	}
	data, err := json.Marshal(out)
	if err != nil {
		return nil, err
	}
	if err := fsx.AtomicWriteFile(shardResultPath(so.SpillDir, shard), data); err != nil {
		return nil, err
	}
	return out, nil
}

// shardResultPath and blockPath name a shard's and a block's results
// inside a campaign spill directory.
func shardResultPath(dir string, shard int) string {
	return filepath.Join(dir, fmt.Sprintf("shard-%04d.json", shard))
}

func blockPath(dir string, block int) string {
	return filepath.Join(dir, fmt.Sprintf("block-%06d.json", block))
}

// loadShardResult returns the finished result of shard in dir, or nil
// when the shard has none yet.
func loadShardResult(dir string, fp CampaignFingerprint, shard int) (*ShardResult, error) {
	path := shardResultPath(dir, shard)
	data, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var prior ShardResult
	if err := json.Unmarshal(data, &prior); err != nil {
		return nil, fmt.Errorf("sim: corrupt shard result %s: %w", path, err)
	}
	if prior.Fingerprint != fp {
		return nil, fmt.Errorf("sim: shard result %s was produced by campaign\n  %s\nbut this invocation is\n  %s\nrefusing to mix them", path, prior.Fingerprint, fp)
	}
	if prior.Shard != shard {
		return nil, fmt.Errorf("sim: shard result %s claims shard %d", path, prior.Shard)
	}
	return &prior, nil
}

// blockFile is one finished block as a spill directory stores it.
type blockFile struct {
	Fingerprint CampaignFingerprint `json:"fingerprint"`
	Aggregate   BlockAggregate      `json:"aggregate"`
	Digests     []*stats.TDigest    `json:"digests"`
}

// shardBlock returns the result of block b. With a spill directory it
// loads the block's file when an earlier invocation finished the
// block, and otherwise runs the block and writes its file. Either way
// the digests come back in their stored form: MarshalJSON compresses a
// digest in place, so a block folded now and the same block loaded on
// resume fold the same bits.
func shardBlock(plans [][]core.Segment, factory ProcessFactory, so ShardOptions, fp CampaignFingerprint, b int) (BlockAggregate, []*stats.TDigest, error) {
	if so.SpillDir == "" {
		return runBlock(plans, factory, so.Options, fp, b)
	}
	path := blockPath(so.SpillDir, b)
	data, err := os.ReadFile(path)
	if err == nil {
		return decodeBlock(path, data, fp, b)
	}
	if !errors.Is(err, os.ErrNotExist) {
		return BlockAggregate{}, nil, err
	}
	agg, digests, err := runBlock(plans, factory, so.Options, fp, b)
	if err != nil {
		return BlockAggregate{}, nil, err
	}
	data, err = json.Marshal(blockFile{Fingerprint: fp, Aggregate: agg, Digests: digests})
	if err != nil {
		return BlockAggregate{}, nil, err
	}
	return agg, digests, fsx.AtomicWriteFile(path, data)
}

// decodeBlock parses the block file at path and checks that it holds
// block b of campaign fp.
func decodeBlock(path string, data []byte, fp CampaignFingerprint, b int) (BlockAggregate, []*stats.TDigest, error) {
	var f blockFile
	if err := json.Unmarshal(data, &f); err != nil {
		return BlockAggregate{}, nil, fmt.Errorf("sim: corrupt block file %s: %w", path, err)
	}
	if f.Fingerprint != fp {
		return BlockAggregate{}, nil, fmt.Errorf("sim: block file %s was produced by campaign\n  %s\nbut this invocation is\n  %s\nrefusing to mix them", path, f.Fingerprint, fp)
	}
	if err := fp.checkBlock(f.Aggregate, b); err != nil {
		return BlockAggregate{}, nil, fmt.Errorf("sim: block file %s: %w", path, err)
	}
	if err := fp.checkDigests(f.Digests, f.Aggregate.Runs); err != nil {
		return BlockAggregate{}, nil, fmt.Errorf("sim: block file %s: %w", path, err)
	}
	return f.Aggregate, f.Digests, nil
}

// checkBlock verifies that blk is block b of the campaign: its index,
// its candidate count and its run count.
func (f CampaignFingerprint) checkBlock(blk BlockAggregate, b int) error {
	if blk.Block != b {
		return fmt.Errorf("block has index %d, expected %d", blk.Block, b)
	}
	if len(blk.Results) != f.Candidates || len(blk.Delta) != f.Candidates {
		return fmt.Errorf("block %d carries %d candidates, fingerprint says %d", b, len(blk.Results), f.Candidates)
	}
	if blk.Runs != f.blockRuns(b) {
		return fmt.Errorf("block %d holds %d runs, expected %d", b, blk.Runs, f.blockRuns(b))
	}
	return nil
}

// checkDigests verifies that digests hold one sketch per candidate,
// each over exactly runs makespans.
func (f CampaignFingerprint) checkDigests(digests []*stats.TDigest, runs int) error {
	if len(digests) != f.Candidates {
		return fmt.Errorf("%d digests, fingerprint says %d candidates", len(digests), f.Candidates)
	}
	for c, d := range digests {
		if d == nil {
			return fmt.Errorf("digest of candidate %d is missing", c)
		}
		if d.N() != float64(runs) {
			return fmt.Errorf("digest of candidate %d covers %v runs, expected %d", c, d.N(), runs)
		}
	}
	return nil
}

// MergeShards folds shard results into the campaign aggregate. Every
// shard must carry the same fingerprint, each shard index exactly once,
// and together they must cover every block — anything else is a loud
// error. Means and deltas fold in global block order (bit-identical for
// any shard count); digests fold in shard order (quantile-equivalent).
func MergeShards(parts []*ShardResult) (CampaignResult, error) {
	if len(parts) == 0 {
		return CampaignResult{}, fmt.Errorf("sim: no shard results to merge")
	}
	fp := parts[0].Fingerprint
	// Fingerprints arrive from disk: the block size divides and the
	// candidate count indexes below.
	if fp.BlockSize <= 0 || fp.Candidates <= 0 {
		return CampaignResult{}, fmt.Errorf("sim: invalid campaign fingerprint %s", fp)
	}
	seen := make(map[int]bool, len(parts))
	for _, p := range parts {
		if p.Fingerprint != fp {
			return CampaignResult{}, fmt.Errorf("sim: shard fingerprints differ:\n  %s\n  %s\nrefusing to merge results from different campaigns", fp, p.Fingerprint)
		}
		if p.Shard < 0 || p.Shard >= fp.Shards {
			return CampaignResult{}, fmt.Errorf("sim: shard index %d out of range [0, %d)", p.Shard, fp.Shards)
		}
		if seen[p.Shard] {
			return CampaignResult{}, fmt.Errorf("sim: shard %d present twice in merge", p.Shard)
		}
		seen[p.Shard] = true
	}
	if len(parts) != fp.Shards {
		missing := make([]string, 0)
		for s := 0; s < fp.Shards; s++ {
			if !seen[s] {
				missing = append(missing, fmt.Sprint(s))
			}
		}
		return CampaignResult{}, fmt.Errorf("sim: merge has %d of %d shards (missing %s)", len(parts), fp.Shards, strings.Join(missing, ", "))
	}
	ordered := append([]*ShardResult(nil), parts...)
	sort.Slice(ordered, func(a, b int) bool { return ordered[a].Shard < ordered[b].Shard })

	out := CampaignResult{
		Results: make([]MCResult, fp.Candidates),
		Delta:   make([]stats.Summary, fp.Candidates),
		Digests: make([]*stats.TDigest, fp.Candidates),
	}
	for i := range out.Digests {
		out.Digests[i] = stats.NewTDigest(stats.DefaultTDigestCompression)
	}
	nextBlock := 0
	for _, p := range ordered {
		lo, hi := fp.blockRange(p.Shard)
		if len(p.Blocks) != hi-lo {
			return CampaignResult{}, fmt.Errorf("sim: shard %d carries %d blocks, expected %d", p.Shard, len(p.Blocks), hi-lo)
		}
		runs := 0
		for _, blk := range p.Blocks {
			if err := fp.checkBlock(blk, nextBlock); err != nil {
				return CampaignResult{}, fmt.Errorf("sim: shard %d: %w", p.Shard, err)
			}
			for c := range out.Results {
				out.Results[c].merge(blk.Results[c])
				out.Delta[c].Merge(blk.Delta[c])
			}
			runs += blk.Runs
			nextBlock++
		}
		// A digest that covers fewer runs than the shard's blocks would
		// leave the merged quantiles describing a different sample than
		// Runs reports.
		if err := fp.checkDigests(p.Digests, runs); err != nil {
			return CampaignResult{}, fmt.Errorf("sim: shard %d: %w", p.Shard, err)
		}
		for c := range out.Digests {
			out.Digests[c].Merge(p.Digests[c])
		}
	}
	if nextBlock != fp.numBlocks() {
		return CampaignResult{}, fmt.Errorf("sim: merge covered %d of %d blocks", nextBlock, fp.numBlocks())
	}
	out.Runs = out.Results[0].Runs
	return out, nil
}

// CampaignPlansSharded runs every shard in this process and merges. It
// is the drop-in sharded equivalent of CampaignPlans: same CRN loop,
// but over per-block streams, so results are independent of Shards as
// well as Workers, and carry per-candidate makespan digests.
//
// Shards run back to back, and each spreads its blocks over the
// worker pool, so at most Workers blocks run at once.
//
// With SpillDir set the invocation owns the whole campaign directory,
// so before it writes it removes the temp files a killed invocation
// left there (fsx.RemoveTemps). CampaignPlansShard leaves them: another
// shard's process may be writing one.
func CampaignPlansSharded(plans [][]core.Segment, factory ProcessFactory, so ShardOptions) (CampaignResult, error) {
	fp, err := so.resolve(plans)
	if err != nil {
		return CampaignResult{}, err
	}
	if so.SpillDir != "" {
		if err := fsx.RemoveTemps(so.SpillDir); err != nil {
			return CampaignResult{}, err
		}
	}
	parts := make([]*ShardResult, fp.Shards)
	for s := range parts {
		if parts[s], err = CampaignPlansShard(plans, factory, so, s); err != nil {
			return CampaignResult{}, err
		}
	}
	return MergeShards(parts)
}

// campaignManifest is the cross-invocation coordination record a spill
// directory carries: the fingerprint every shard invocation must match.
type campaignManifest struct {
	Fingerprint CampaignFingerprint `json:"fingerprint"`
}

const campaignManifestName = "campaign.json"

// WriteCampaignManifest records the campaign fingerprint in dir. An
// existing manifest for a different fingerprint is a loud error; an
// identical one is idempotent.
func WriteCampaignManifest(dir string, fp CampaignFingerprint) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, campaignManifestName)
	if prior, err := ReadCampaignManifest(dir); err == nil {
		if prior != fp {
			return fmt.Errorf("sim: %s already holds campaign\n  %s\nbut this invocation is\n  %s\nuse a fresh directory or matching parameters", path, prior, fp)
		}
		return nil
	} else if !errors.Is(err, os.ErrNotExist) {
		return err
	}
	data, err := json.MarshalIndent(campaignManifest{Fingerprint: fp}, "", "  ")
	if err != nil {
		return err
	}
	return fsx.AtomicWriteFile(path, data)
}

// ReadCampaignManifest loads the fingerprint recorded in dir.
// os.ErrNotExist when the directory has no manifest.
func ReadCampaignManifest(dir string) (CampaignFingerprint, error) {
	data, err := os.ReadFile(filepath.Join(dir, campaignManifestName))
	if err != nil {
		return CampaignFingerprint{}, err
	}
	var m campaignManifest
	if err := json.Unmarshal(data, &m); err != nil {
		return CampaignFingerprint{}, fmt.Errorf("sim: corrupt campaign manifest in %s: %w", dir, err)
	}
	return m.Fingerprint, nil
}

// LoadCampaignDir loads every finished shard result present in dir,
// verifying each against the manifest. Missing shards are not an error
// here — MergeShards reports exactly which are absent. A merge reads a
// directory whose shards have all stopped writing, so it also removes
// the temp files killed writers left there (fsx.RemoveTemps).
func LoadCampaignDir(dir string) ([]*ShardResult, error) {
	fp, err := ReadCampaignManifest(dir)
	if err != nil {
		return nil, err
	}
	if err := fsx.RemoveTemps(dir); err != nil {
		return nil, err
	}
	var parts []*ShardResult
	for s := 0; s < fp.Shards; s++ {
		data, err := os.ReadFile(shardResultPath(dir, s))
		if errors.Is(err, os.ErrNotExist) {
			continue
		}
		if err != nil {
			return nil, err
		}
		var sr ShardResult
		if err := json.Unmarshal(data, &sr); err != nil {
			return nil, fmt.Errorf("sim: corrupt shard result for shard %d in %s: %w", s, dir, err)
		}
		if sr.Fingerprint != fp {
			return nil, fmt.Errorf("sim: shard %d in %s was produced by campaign\n  %s\nbut the manifest says\n  %s", s, dir, sr.Fingerprint, fp)
		}
		parts = append(parts, &sr)
	}
	return parts, nil
}
