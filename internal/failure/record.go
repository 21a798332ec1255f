package failure

// RecordedTrace lazily materializes the platform-level inter-failure gap
// sequence of a live process so several candidate simulations can replay
// one stochastic environment — the common-random-numbers backbone behind
// sim.Campaign.
//
// The gap sequence of a Process is plan-independent: Advance only consumes
// parts of the announced gap, so the delays between successive failures
// depend on the process state alone, never on the plan being executed.
// Recording therefore drives the source through its failure sequence
// directly (NextFailure/ObserveFailure), and every candidate replays the
// identical gaps through a TraceCursor — the same idea as TraceProcess
// replaying a recorded log, but extended on demand instead of cycling when
// a candidate outlives the recording. S candidates thus cost one set of
// distribution draws instead of S, and their makespans are positively
// correlated, which is what shrinks the variance of paired strategy
// deltas.
type RecordedTrace struct {
	src  Process
	gaps []float64
}

// NewRecordedTrace wraps src for recording. The trace takes ownership of
// src's failure sequence: nothing else may advance src while the trace is
// in use.
func NewRecordedTrace(src Process) *RecordedTrace {
	return &RecordedTrace{src: src}
}

// Gap returns the i-th inter-failure gap, extending the recording from the
// live process on demand. Extension order — and hence the source stream's
// draw order — is deterministic regardless of which replay cursor
// triggers the extension, because cursors run sequentially within a
// replication.
func (t *RecordedTrace) Gap(i int) float64 {
	for len(t.gaps) <= i {
		g := t.src.NextFailure()
		t.src.ObserveFailure()
		t.gaps = append(t.gaps, g)
	}
	return t.gaps[i]
}

// Reset begins a new replication: it discards the recorded gaps (keeping
// their capacity, so steady-state recording allocates nothing) and
// re-initializes the source process when it is Resettable, making the next
// recording statistically fresh.
func (t *RecordedTrace) Reset() {
	t.gaps = t.gaps[:0]
	if r, ok := t.src.(Resettable); ok {
		r.Reset()
	}
}

// TraceCursor replays a RecordedTrace through the Process interface. Each
// candidate simulation gets its own cursor (or reuses one via Reset);
// cursors share the recording, so replays draw nothing from the source
// stream beyond the shared extensions.
type TraceCursor struct {
	t    *RecordedTrace
	pos  int
	next float64
}

// Cursor returns a replay view positioned at the first gap of the current
// recording (materializing it if needed).
func (t *RecordedTrace) Cursor() *TraceCursor {
	c := &TraceCursor{t: t}
	c.Reset()
	return c
}

// NextFailure returns the remaining delay of the current gap.
func (c *TraceCursor) NextFailure() float64 { return c.next }

// ObserveFailure moves to the next recorded gap, extending the recording
// if this cursor is the first to reach it.
func (c *TraceCursor) ObserveFailure() {
	c.pos++
	c.next = c.t.Gap(c.pos)
}

// Advance consumes dt from the current gap.
func (c *TraceCursor) Advance(dt float64) {
	c.next -= dt
	if c.next < 0 {
		c.next = 0
	}
}

// Rate returns the source process's nominal rate.
func (c *TraceCursor) Rate() float64 { return c.t.src.Rate() }

// Reset rewinds the cursor to the start of the current recording. Note
// this replays the same environment again — fresh randomness comes from
// resetting the RecordedTrace itself between replications.
func (c *TraceCursor) Reset() {
	c.pos = 0
	c.next = c.t.Gap(0)
}

var (
	_ Process    = (*TraceCursor)(nil)
	_ Resettable = (*TraceCursor)(nil)
)
