package sim

// Sharded, resumable CRN campaigns. The unit of determinism is the
// *block*: a campaign of R replications is split into fixed-size blocks
// whose count and contents depend only on (seed, runs, block size,
// round) — never on the shard count or worker count. Block b draws its
// randomness from the stateless derivation
//
//	rng.New(seed).Keyed(round).Keyed(b)
//
// and runs sim's one replication loop (replicate) over its
// replications. A shard owns a contiguous range of blocks; merging
// folds the per-block partial aggregates in global block order.
// Because the fold units and the fold order are fixed, the merged means
// and paired deltas are bit-identical for ANY shard count and ANY
// worker count — including
// shards computed by separate processes and merged from their
// serialized results (Summary.Merge is not floating-point associative,
// so this property is exactly as strong as the fixed fold structure and
// no stronger). Makespan histograms merge exactly (stats.Histogram), so
// they are bit-identical under any grouping.
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

// check rejects a fingerprint no campaign resolves to (see resolve);
// fingerprints read from disk divide, index and size by these fields.
func (f CampaignFingerprint) check() error {
	if f.Runs <= 0 || f.BlockSize <= 0 || f.Candidates <= 0 || f.Shards <= 0 || f.Shards > f.numBlocks() {
		return fmt.Errorf("sim: invalid campaign fingerprint %s", f)
	}
	return nil
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
	if err := so.checkDowntime(); err != nil {
		return CampaignFingerprint{}, err
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

// scheduleVersion numbers the block sampling schedule and the block and
// shard file format, so campaign files written under another one are
// refused as foreign. Version 2 runs a lone candidate on its process,
// not through a recorded trace; version 3 stores makespan histograms,
// not t-digests.
const scheduleVersion = 3

// workloadHash digests everything that shapes simulated trajectories:
// the schedule version, the candidate segment structure, the downtime
// and the failure budget.
func workloadHash(plans [][]core.Segment, opts Options) string {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v float64) {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
	put(scheduleVersion)
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
// per-candidate makespan histograms over the shard's runs.
type ShardResult struct {
	Fingerprint CampaignFingerprint `json:"fingerprint"`
	Shard       int                 `json:"shard"`
	Blocks      []BlockAggregate    `json:"blocks"`
	Digests     []*stats.Histogram  `json:"digests"`
}

// testHookBlock, when non-nil, brackets every block execution. The
// oversubscription audit uses it to measure peak block concurrency.
var testHookBlock func(enter bool)

// replicate is sim's one replication loop: runs replications, each on
// a fresh process from factory over stream, reset when it is
// Resettable (allocation-free in steady state) and built anew
// otherwise. CRN pairing needs two candidates, so a lone candidate runs
// the process directly; several replay one recorded failure trace in
// candidate order, so the stream draw order is deterministic. When
// digests is non-nil each candidate's makespans are added to its digest.
func replicate(plans [][]core.Segment, factory ProcessFactory, opts Options, stream *rng.Stream, runs int, digests []*stats.Histogram) (BlockAggregate, error) {
	cands := len(plans)
	agg := BlockAggregate{
		Runs:    runs,
		Results: make([]MCResult, cands),
		Delta:   make([]stats.Summary, cands),
	}
	makespans := make([]float64, cands)
	var src, proc failure.Process
	var trace *failure.RecordedTrace
	var cursor *failure.TraceCursor
	for rep := 0; rep < runs; rep++ {
		if res, ok := src.(failure.Resettable); ok && trace != nil {
			trace.Reset()
		} else if ok {
			res.Reset()
		} else {
			src = factory(stream)
			proc = src
			if cands > 1 {
				trace = failure.NewRecordedTrace(src)
				cursor = trace.Cursor()
				proc = cursor
			}
		}
		for cand := 0; cand < cands; cand++ {
			if cursor != nil {
				cursor.Reset()
			}
			rs, err := Run(plans[cand], proc, opts)
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

// newDigests returns n empty makespan digests.
func newDigests(n int) []*stats.Histogram {
	d := make([]*stats.Histogram, n)
	for i := range d {
		d[i] = new(stats.Histogram)
	}
	return d
}

// mergeDigests folds src into dst, candidate by candidate; a nil dst
// takes nothing.
func mergeDigests(dst, src []*stats.Histogram) {
	for c, d := range dst {
		d.Merge(src[c])
	}
}

// CampaignPlansShard runs the blocks owned by one shard of a sharded
// CRN campaign and returns that shard's partial result. Shards are
// independent: separate processes may each run one (sharing only the
// ShardOptions) and merge the results with MergeShards. The shard's
// blocks spread over the worker pool (runShard).
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
	out, err := runShard(plans, factory, so, fp, shard, true)
	if err != nil || so.SpillDir == "" {
		return out, err
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

// runShard runs the blocks of shard over the worker pool. Their results
// land in a slice indexed by block, so the fold order is independent of
// scheduling. With digests set each worker sketches the makespans of
// the blocks it runs, and the workers' histograms merge at the end:
// histogram merges are exact, so which worker ran which block does not
// reach the result.
func runShard(plans [][]core.Segment, factory ProcessFactory, so ShardOptions, fp CampaignFingerprint, shard int, digests bool) (*ShardResult, error) {
	lo, hi := fp.blockRange(shard)
	out := &ShardResult{Fingerprint: fp, Shard: shard, Blocks: make([]BlockAggregate, hi-lo)}
	workers := par.Workers(so.Workers, hi-lo)
	perWorker := make([][]*stats.Histogram, workers)
	if digests {
		for w := range perWorker {
			perWorker[w] = newDigests(len(plans))
		}
	}
	err := par.Each(workers, hi-lo, func(w, i int) error {
		var err error
		out.Blocks[i], err = shardBlock(plans, factory, so, fp, lo+i, perWorker[w])
		return err
	})
	if err != nil {
		return nil, err
	}
	out.Digests = perWorker[0]
	for _, dig := range perWorker[1:] {
		mergeDigests(out.Digests, dig)
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
	if err := decodeFile("shard result", path, data, fp, &prior); err != nil {
		return nil, err
	}
	if prior.Shard != shard {
		return nil, fmt.Errorf("sim: shard result %s claims shard %d", path, prior.Shard)
	}
	return &prior, nil
}

// decodeFile unmarshals data, the campaign file at path, into v once
// the fingerprint it records matches fp. The fingerprint is read first,
// so a file of another schedule version, whose digests this one cannot
// read, is refused as foreign rather than reported as corrupt.
func decodeFile(kind, path string, data []byte, fp CampaignFingerprint, v any) error {
	var head struct {
		Fingerprint CampaignFingerprint `json:"fingerprint"`
	}
	if err := json.Unmarshal(data, &head); err != nil {
		return fmt.Errorf("sim: corrupt %s %s: %w", kind, path, err)
	}
	if head.Fingerprint != fp {
		return fmt.Errorf("sim: %s %s was produced by campaign\n  %s\nbut this invocation is\n  %s\nrefusing to mix them", kind, path, head.Fingerprint, fp)
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("sim: corrupt %s %s: %w", kind, path, err)
	}
	return nil
}

// blockFile is one finished block as a spill directory stores it.
type blockFile struct {
	Fingerprint CampaignFingerprint `json:"fingerprint"`
	Aggregate   BlockAggregate      `json:"aggregate"`
	Digests     []*stats.Histogram  `json:"digests"`
}

// shardBlock runs block b of the replication loop on the block's own
// stream and adds each candidate's makespans to digests when it is
// non-nil. With a spill directory it loads the block's file when an
// earlier invocation finished the block, and otherwise runs the block
// and writes its file, the block's own histograms always included.
// Histogram merges are exact, so a block merged from its file adds the
// same bits as the block run now.
func shardBlock(plans [][]core.Segment, factory ProcessFactory, so ShardOptions, fp CampaignFingerprint, b int, digests []*stats.Histogram) (BlockAggregate, error) {
	path, dig := "", digests
	if so.SpillDir != "" {
		path = blockPath(so.SpillDir, b)
		switch data, err := os.ReadFile(path); {
		case err == nil:
			agg, stored, err := decodeBlock(path, data, fp, b)
			if err == nil {
				mergeDigests(digests, stored)
			}
			return agg, err
		case !errors.Is(err, os.ErrNotExist):
			return BlockAggregate{}, err
		}
		dig = newDigests(len(plans))
	}
	if testHookBlock != nil {
		testHookBlock(true)
		defer testHookBlock(false)
	}
	stream := rng.New(fp.Seed).Keyed(fp.Round).Keyed(uint64(b))
	agg, err := replicate(plans, factory, so.Options, stream, fp.blockRuns(b), dig)
	if err != nil {
		return BlockAggregate{}, err
	}
	agg.Block = b
	if path == "" {
		return agg, nil
	}
	data, err := json.Marshal(blockFile{Fingerprint: fp, Aggregate: agg, Digests: dig})
	if err != nil {
		return BlockAggregate{}, err
	}
	mergeDigests(digests, dig)
	return agg, fsx.AtomicWriteFile(path, data)
}

// decodeBlock parses the block file at path and checks that it holds
// block b of campaign fp.
func decodeBlock(path string, data []byte, fp CampaignFingerprint, b int) (BlockAggregate, []*stats.Histogram, error) {
	var f blockFile
	if err := decodeFile("block file", path, data, fp, &f); err != nil {
		return BlockAggregate{}, nil, err
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
func (f CampaignFingerprint) checkDigests(digests []*stats.Histogram, runs int) error {
	if len(digests) != f.Candidates {
		return fmt.Errorf("%d digests, fingerprint says %d candidates", len(digests), f.Candidates)
	}
	for c, d := range digests {
		if d == nil {
			return fmt.Errorf("digest of candidate %d is missing", c)
		}
		if d.N() != uint64(runs) {
			return fmt.Errorf("digest of candidate %d covers %v runs, expected %d", c, d.N(), runs)
		}
	}
	return nil
}

// MergeShards folds shard results into the campaign aggregate. Every
// shard must carry the same fingerprint, each shard index exactly once,
// and together they must cover every block — anything else is a loud
// error. Means and deltas fold in global block order and histograms
// merge exactly, so the result is bit-identical for any shard count.
func MergeShards(parts []*ShardResult) (CampaignResult, error) {
	if len(parts) == 0 {
		return CampaignResult{}, fmt.Errorf("sim: no shard results to merge")
	}
	fp := parts[0].Fingerprint
	if err := fp.check(); err != nil {
		return CampaignResult{}, err
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
		// The shard count comes from disk: name the first few missing.
		var missing []string
		for s := 0; s < fp.Shards && len(missing) < 8; s++ {
			if !seen[s] {
				missing = append(missing, fmt.Sprint(s))
			}
		}
		if len(parts)+len(missing) < fp.Shards {
			missing = append(missing, "…")
		}
		return CampaignResult{}, fmt.Errorf("sim: merge has %d of %d shards (missing %s)", len(parts), fp.Shards, strings.Join(missing, ", "))
	}
	ordered := append([]*ShardResult(nil), parts...)
	sort.Slice(ordered, func(a, b int) bool { return ordered[a].Shard < ordered[b].Shard })

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
			runs += blk.Runs
			nextBlock++
		}
		// A digest that covers fewer runs than the shard's blocks would
		// leave the merged quantiles describing a different sample than
		// Runs reports.
		if err := fp.checkDigests(p.Digests, runs); err != nil {
			return CampaignResult{}, fmt.Errorf("sim: shard %d: %w", p.Shard, err)
		}
	}
	if nextBlock != fp.numBlocks() {
		return CampaignResult{}, fmt.Errorf("sim: merge covered %d of %d blocks", nextBlock, fp.numBlocks())
	}

	// Every block now holds fp.Candidates results, so the count sizes
	// nothing the shards do not already carry.
	out := newCampaignResult(fp.Candidates)
	out.Digests = newDigests(fp.Candidates)
	for _, p := range ordered {
		for _, blk := range p.Blocks {
			out.foldBlock(blk)
		}
		mergeDigests(out.Digests, p.Digests)
	}
	return out, nil
}

// CampaignPlansSharded runs every shard in this process and merges. It
// is CampaignPlans with an explicit campaign seed, shard count and
// block size: the same blocks, so results are independent of Shards as
// well as Workers, plus per-candidate makespan digests.
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
	if err := m.Fingerprint.check(); err != nil {
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
	// Walk the directory's entries, not the manifest's shard count:
	// that count comes from disk, and the entries bound the work.
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var parts []*ShardResult
	for _, e := range entries {
		var s int
		if _, err := fmt.Sscanf(e.Name(), "shard-%d.json", &s); err != nil || s < 0 || s >= fp.Shards ||
			shardResultPath(dir, s) != filepath.Join(dir, e.Name()) {
			continue
		}
		sr, err := loadShardResult(dir, fp, s)
		if err != nil {
			return nil, err
		}
		if sr != nil {
			parts = append(parts, sr)
		}
	}
	return parts, nil
}
