package store

import (
	"bytes"
	"cmp"
	"errors"
	"fmt"
	"slices"
)

// ErrQuorum reports an operation that could not assemble its quorum:
// too few replicas responded before their deadlines. It always wraps a
// representative replica error so classification still works — a
// transient one when retrying could plausibly assemble the quorum, the
// permanent failure otherwise.
var ErrQuorum = errors.New("store: quorum not reached")

// QuorumConfig parameterizes a QuorumStore over N replicas.
type QuorumConfig struct {
	// W is the write quorum: a Save (or Delete) succeeds once W
	// replicas acknowledge. Zero defaults to the majority N/2+1.
	W int
	// R is the read quorum: a Load (or List) succeeds once R replicas
	// respond. Zero defaults to the majority N/2+1. Choose W+R > N so
	// every read quorum intersects every write quorum.
	R int
}

// QuorumStats counts quorum-level activity.
type QuorumStats struct {
	// Repairs counts stale or corrupt replicas overwritten with a good
	// payload on the read path.
	Repairs uint64
	// Hedged counts reads that contacted spare replicas beyond the
	// first wave.
	Hedged uint64
	// QuorumFailures counts operations that could not assemble their
	// quorum.
	QuorumFailures uint64
}

// QuorumStore replicates checkpoints across N replica stores with
// write-quorum W and read-quorum R semantics, hedged reads, and
// deterministic read repair. Replicas are contacted in ascending index
// order and all bookkeeping (response ordering, repair order, merge
// order) ties on replica index, so every outcome is deterministic for
// any replica count and any number of concurrently executing runs.
//
// Latency model: replicas respond "in parallel" in virtual time. The
// operation's charged latency is the quorum-assembly time — the W-th
// (or R-th) smallest response time — not the sum of replica latencies;
// stragglers beyond the quorum and read repair run off the critical
// path. A failed operation charges the slowest terminal event among
// everything it waited on.
//
// Torn replica frames reach the quorum as ErrCorrupt negative responses
// it out-votes and repairs. QuorumStore is itself a latency-tracking
// layer (LastOp) and forwards clock bindings to every replica.
type QuorumStore struct {
	replicas []Store
	trackers []lastOpReader // replica i's latency tracker, nil if none
	w, r     int

	// One executor drives a run, but runs share the store; the
	// ledger's mutex guards stats too.
	opLedger[quorumRun, *quorumRun]
	stats QuorumStats
}

// quorumRun is one run's record at this layer, resolved at the run's
// first operation: its ledger entry and its entry in every replica's
// latency tracker (nil for a replica that tracks none). The run's
// driver reads it without a lock (see lastOpReader.runOp).
type quorumRun struct {
	runHead
	reps []*RunOp
	buf  [scratchReplicas]*RunOp // backs reps up to scratchReplicas replicas
}

// NewQuorumStore builds a quorum store over the given replicas. W and
// R default to the majority when zero; a value outside [1, replicas]
// is an error.
func NewQuorumStore(replicas []Store, cfg QuorumConfig) (*QuorumStore, error) {
	n := len(replicas)
	if n == 0 {
		return nil, fmt.Errorf("store: quorum needs at least one replica")
	}
	w, r := cfg.W, cfg.R
	if w == 0 {
		w = n/2 + 1
	}
	if r == 0 {
		r = n/2 + 1
	}
	if w < 1 || w > n || r < 1 || r > n {
		return nil, fmt.Errorf("store: quorum W=%d R=%d invalid for %d replicas", w, r, n)
	}
	q := &QuorumStore{
		replicas: replicas,
		trackers: make([]lastOpReader, n),
		w:        w,
		r:        r,
	}
	for i, rep := range replicas {
		q.trackers[i], _ = find[lastOpReader](rep)
	}
	return q, nil
}

// Stats returns a snapshot of quorum-level counters.
func (q *QuorumStore) Stats() QuorumStats {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.stats
}

// run returns run's record, creating it on first use.
func (q *QuorumStore) run(run string) *quorumRun {
	if qr := q.lookup(run); qr != nil {
		return qr
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.missedLocked(run, func() *quorumRun {
		qr := new(quorumRun)
		qr.reps = qr.buf[:0]
		for _, tr := range q.trackers {
			var e *RunOp
			if tr != nil {
				e = tr.runOp(run)
			}
			qr.reps = append(qr.reps, e)
		}
		return qr
	})
}

// runOp resolves run's ledger entry for the layers that measure this
// one.
func (q *QuorumStore) runOp(run string) *RunOp { return &q.run(run).op }

// book records one operation of the run and its exact latency, and
// adds the operation's counters d to the store's, in one lock section.
func (q *QuorumStore) book(qr *quorumRun, lat float64, d QuorumStats) {
	q.mu.Lock()
	qr.op.book(lat)
	q.addLocked(d)
	q.mu.Unlock()
}

// count adds d to the store's counters.
func (q *QuorumStore) count(d QuorumStats) {
	q.mu.Lock()
	q.addLocked(d)
	q.mu.Unlock()
}

func (q *QuorumStore) addLocked(d QuorumStats) {
	q.stats.Repairs += d.Repairs
	q.stats.Hedged += d.Hedged
	q.stats.QuorumFailures += d.QuorumFailures
}

// BindClock forwards the binding to every replica stack.
func (q *QuorumStore) BindClock(run string, now func() float64) {
	for _, rep := range q.replicas {
		BindClock(rep, run, now)
	}
}

// replicaOp runs op against replica i on qr's run and returns the
// virtual latency the replica stack charged for it (zero when the stack
// tracks none). Each quorum Save/Load/List/Delete books ONE ledger
// entry regardless of replica fan-out, so a caller measuring a save
// observes exactly one operation.
func (q *QuorumStore) replicaOp(qr *quorumRun, i int, op func(Store) error) (float64, error) {
	rep := q.replicas[i]
	return measure(qr.reps[i], func() error { return op(rep) })
}

// permanentErr classifies a replica failure: quota, corruption and
// not-found cannot be fixed by retrying the same operation.
func permanentErr(err error) bool {
	return errors.Is(err, ErrQuota) || errors.Is(err, ErrCorrupt) || errors.Is(err, ErrNotFound)
}

// quorumErr assembles the representative error for a failed quorum:
// when enough of the failures are transient that a retry could still
// assemble the quorum, a transient failure is wrapped (the operation
// classifies transient); otherwise the first permanent failure is.
func quorumErr(op, run string, seq uint64, got, need int, failures []error) error {
	needed := need - got
	var transient, permanent error
	transients := 0
	for _, e := range failures {
		if e == nil {
			continue
		}
		if permanentErr(e) {
			if permanent == nil {
				permanent = e
			}
			continue
		}
		transients++
		if transient == nil {
			transient = e
		}
	}
	rep := transient
	if transients < needed && permanent != nil {
		rep = permanent
	}
	if rep == nil {
		rep = fmt.Errorf("no replica reachable")
	}
	return fmt.Errorf("store: %s %s/%d: %d/%d replicas: %w: %w", op, run, seq, got, need, ErrQuorum, rep)
}

// kthSmallest returns the k-th smallest value (1-based) of xs, with
// duplicate values occupying adjacent ranks, as if xs were sorted. It
// neither copies nor mutates xs: x is the answer when fewer than k
// values lie below it and at least k lie at or below it. Quadratic, so
// meant for quorum-sized inputs.
func kthSmallest(xs []float64, k int) float64 {
	for _, x := range xs {
		below, atMost := 0, 0
		for _, y := range xs {
			if y < x {
				below++
			}
			if y <= x {
				atMost++
			}
		}
		if below < k && k <= atMost {
			return x
		}
	}
	panic(fmt.Sprintf("store: kthSmallest(%d) of %d values", k, len(xs)))
}

func maxOf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

// scratchReplicas is the replica count up to which Save and Load keep
// their per-replica bookkeeping in fixed-size arrays on the stack;
// larger quorums spill onto the heap through append.
const scratchReplicas = 8

// Save fans the write out to every replica and succeeds once W
// acknowledge. Charged latency is the W-th fastest acknowledgment;
// a failed save charges the slowest terminal event.
func (q *QuorumStore) Save(run string, seq uint64, payload []byte) error {
	var ackBuf [scratchReplicas]float64
	var errBuf [scratchReplicas]error
	acks, errs := ackBuf[:0], errBuf[:0]
	slowest := 0.0
	qr := q.run(run)
	for i := range q.replicas {
		lat, err := q.replicaOp(qr, i, func(s Store) error { return s.Save(run, seq, payload) })
		errs = append(errs, err)
		if lat > slowest {
			slowest = lat
		}
		if err == nil {
			acks = append(acks, lat)
		}
	}
	if len(acks) >= q.w {
		q.book(qr, kthSmallest(acks, q.w), QuorumStats{})
		return nil
	}
	q.book(qr, slowest, QuorumStats{QuorumFailures: 1})
	return quorumErr("save", run, seq, len(acks), q.w, errs)
}

// reply is one replica's answer on the read path. A response is an
// answer that arrived before the replica's deadline — a payload, or a
// definite negative (not-found / corrupt). Timeouts are non-responses:
// their terminal time is still waited on when the quorum cannot be
// assembled without them.
type reply struct {
	idx      int
	at       float64
	payload  []byte
	negative bool // responded, but with not-found or corrupt
	err      error
}

// Load assembles a read quorum with hedging: the first R replicas are
// contacted immediately; if they do not yield R responses, the spare
// replicas are contacted after the first wave's slowest terminal event. The returned payload is
// the first positive response in completion order (ties on replica
// index); replicas that responded negatively are then repaired off the
// critical path. All R responses negative means the checkpoint
// definitively does not exist at this quorum: ErrNotFound.
func (q *QuorumStore) Load(run string, seq uint64) ([]byte, error) {
	payload, _, err := q.load(q.run(run), run, seq)
	return payload, err
}

// load is Load on qr's run; it also returns how many replicas its read
// repair rewrote.
func (q *QuorumStore) load(qr *quorumRun, run string, seq uint64) ([]byte, uint64, error) {
	n := len(q.replicas)
	var respBuf, failBuf [scratchReplicas]reply
	responses, failures := respBuf[:0], failBuf[:0]
	contact := func(i int, offset float64) {
		var payload []byte
		lat, err := q.replicaOp(qr, i, func(s Store) error {
			var ierr error
			payload, ierr = s.Load(run, seq)
			return ierr
		})
		rp := reply{idx: i, at: offset + lat, err: err}
		switch {
		case err == nil:
			rp.payload = payload
		case permanentErr(err):
			rp.negative = true
		default:
			failures = append(failures, rp)
			return
		}
		responses = append(responses, rp)
	}

	first := min(q.r, n)
	for i := 0; i < first; i++ {
		contact(i, 0)
	}

	// Hedge: contact the spares, at the first wave's last arrival, when
	// that wave cannot assemble R responses on its own.
	var d QuorumStats
	if len(responses) < q.r && first < n {
		start := lastArrival(responses, failures)
		d.Hedged = 1
		for i := first; i < n; i++ {
			contact(i, start)
		}
	}

	// Completion order: by virtual arrival time, ties on replica index.
	slices.SortStableFunc(responses, func(a, b reply) int {
		if c := cmp.Compare(a.at, b.at); c != 0 {
			return c
		}
		return cmp.Compare(a.idx, b.idx)
	})

	if len(responses) < q.r {
		d.QuorumFailures = 1
		q.book(qr, lastArrival(responses, failures), d)
		errs := make([]error, 0, len(failures))
		for _, rp := range failures {
			errs = append(errs, rp.err)
		}
		return nil, 0, quorumErr("load", run, seq, len(responses), q.r, errs)
	}

	// The read completes when the R-th response arrives.
	quorum := responses[:q.r]
	lat := quorum[q.r-1].at
	var payload []byte
	for _, rp := range quorum {
		if !rp.negative {
			payload = rp.payload
			break
		}
	}
	if payload == nil {
		// Check late responses too before declaring absence — a spare
		// that answered after the quorum may still hold the payload
		// (only possible when W+R ≤ N).
		for _, rp := range responses[q.r:] {
			if !rp.negative {
				payload = rp.payload
				break
			}
		}
		if payload == nil {
			q.book(qr, lat, d)
			return nil, 0, fmt.Errorf("store: load %s/%d: %w", run, seq, ErrNotFound)
		}
	}

	// Read repair, off the critical path, in ascending replica index:
	// every contacted replica that answered with a definite negative —
	// or with payload bytes that diverge from the chosen one — gets the
	// good payload re-written. Repair failures are ignored — the next
	// read (or an anti-entropy pass) retries.
	var staleBuf [scratchReplicas]int
	stale := staleBuf[:0]
	for _, rp := range responses {
		if rp.negative || (rp.err == nil && !bytes.Equal(rp.payload, payload)) {
			stale = append(stale, rp.idx)
		}
	}
	slices.Sort(stale)
	for _, i := range stale {
		if _, err := q.replicaOp(qr, i, func(s Store) error { return s.Save(run, seq, payload) }); err == nil {
			d.Repairs++
		}
	}
	q.book(qr, lat, d)
	return payload, d.Repairs, nil
}

// lastArrival returns the slowest terminal event among the replies.
func lastArrival(responses, failures []reply) float64 {
	m := 0.0
	for _, rps := range [2][]reply{responses, failures} {
		for _, rp := range rps {
			if rp.at > m {
				m = rp.at
			}
		}
	}
	return m
}

// List contacts every replica and merges the sequence sets of all
// successful responses (ascending, deduplicated) once at least R
// replicas answered. Late responses still merge — a conservative
// union can only offer the executor more fallback points.
func (q *QuorumStore) List(run string) ([]uint64, error) {
	qr := q.run(run)
	merged, lats, errs := q.listAll(qr, run)
	var oks []float64
	for i, err := range errs {
		if err == nil {
			oks = append(oks, lats[i])
		}
	}
	if len(oks) < q.r {
		q.book(qr, maxOf(lats), QuorumStats{QuorumFailures: 1})
		return nil, quorumErr("list", run, 0, len(oks), q.r, errs)
	}
	q.book(qr, kthSmallest(oks, q.r), QuorumStats{})
	return merged, nil
}

// listAll lists qr's run on every replica in index order. It returns
// the ascending, deduplicated union of the listings that succeeded, and
// each replica's charged latency and error (nil when it listed).
func (q *QuorumStore) listAll(qr *quorumRun, run string) (merged []uint64, lats []float64, errs []error) {
	n := len(q.replicas)
	lats, errs = make([]float64, n), make([]error, n)
	for i := range q.replicas {
		var seqs []uint64
		lats[i], errs[i] = q.replicaOp(qr, i, func(s Store) error {
			var err error
			seqs, err = s.List(run)
			return err
		})
		if errs[i] == nil {
			merged = mergeSorted(merged, seqs)
		}
	}
	if merged == nil {
		merged = []uint64{}
	}
	return merged, lats, errs
}

// mergeSorted returns the ascending, deduplicated union of two
// ascending lists: a itself when b adds nothing, b compacted in place
// when a is empty (List results belong to the caller), a new slice
// otherwise.
func mergeSorted(a, b []uint64) []uint64 {
	switch {
	case len(a) == 0:
		return slices.Compact(b)
	case slices.Equal(a, b):
		return a
	}
	out := make([]uint64, 0, len(a)+len(b))
	for len(a) > 0 || len(b) > 0 {
		var v uint64
		switch {
		case len(b) == 0 || (len(a) > 0 && a[0] <= b[0]):
			v, a = a[0], a[1:]
		default:
			v, b = b[0], b[1:]
		}
		if len(out) == 0 || out[len(out)-1] != v {
			out = append(out, v)
		}
	}
	return out
}

// Delete fans out to every replica; a replica that reports not-found
// counts as an acknowledgment (the checkpoint is gone there already).
// The delete succeeds once W replicas acknowledge, and reports
// ErrNotFound only when every acknowledgment was a not-found.
func (q *QuorumStore) Delete(run string, seq uint64) error {
	n := len(q.replicas)
	lats := make([]float64, n)
	errs := make([]error, n)
	var acks []float64
	deleted := false
	qr := q.run(run)
	for i := 0; i < n; i++ {
		lats[i], errs[i] = q.replicaOp(qr, i, func(s Store) error { return s.Delete(run, seq) })
		if errs[i] == nil || errors.Is(errs[i], ErrNotFound) {
			acks = append(acks, lats[i])
			if errs[i] == nil {
				deleted = true
			}
		}
	}
	if len(acks) >= q.w {
		q.book(qr, kthSmallest(acks, q.w), QuorumStats{})
		if !deleted {
			return fmt.Errorf("store: delete %s/%d: %w", run, seq, ErrNotFound)
		}
		return nil
	}
	q.book(qr, maxOf(lats), QuorumStats{QuorumFailures: 1})
	return quorumErr("delete", run, seq, len(acks), q.w, errs)
}

var (
	_ Store       = (*QuorumStore)(nil)
	_ ClockBinder = (*QuorumStore)(nil)
)
