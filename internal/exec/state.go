package exec

import (
	"errors"
	"fmt"
	"math"
)

// coreRecord is the executor state every checkpoint carries: the
// virtual clock, the accumulated metrics and the chain position.
type coreRecord struct {
	t   float64 // virtual clock
	met Metrics

	// Checkpoint chain: a payload carries only the journal events since
	// base, the last checkpoint this invocation persisted on the active
	// store (0 = none), whose payload encoded the first baseLen events.
	// jhash is the running FNV-1a of the journal (hashEvent), recorded in
	// every payload so a resume can verify the chain it concatenates.
	base, baseLen uint64
	jhash         uint64
}

// adaptiveRecord is the adaptive-mode state a checkpoint carries:
// store health, ladder position, hysteresis anchors and exposure
// accounting. A legacy run persists it as zeros and never reads it
// back.
type adaptiveRecord struct {
	health        StoreHealth
	level         DegradeLevel
	consec        int // consecutive commit give-ups on the active store
	giveups       int // lifetime commit give-ups
	sinceDown     int // commits skipped since the last ride-out probe
	replans       int // replans applied (including replayed ones)
	lastOverhead  float64
	lastReplanAt1 int // commit index of the last replan + 1; 0 = never
	lastPersistT  float64
	maxRewind     float64
}

// execState is the decoded checkpoint payload: the two records the
// executor embeds, bit-exact, plus the source position and the journal
// delta since the chain base. Bit-exact float round-tripping is what
// makes resumed accumulations identical to uninterrupted ones.
type execState struct {
	fp      uint64
	seq     uint64
	nextSeg uint64
	src     SourceState
	coreRecord
	adaptiveRecord

	// delta is journal[baseLen:], the events since the chain base.
	delta Journal
	// journal is the full journal, resolved from the chain on resume
	// (resolveChain); never encoded.
	journal Journal
}

// journalLen is the journal length the payload was encoded at.
func (st *execState) journalLen() uint64 { return st.baseLen + uint64(len(st.delta)) }

// stateSchema versions the checkpoint payload (inside the store codec's
// frame, which versions the framing itself). Schema 2 appended the
// adaptive block to schema 1's twelve slots, reusing slot 11 (reserved)
// for StoreOverhead; schema 3 appended the ride-out probe counter
// (sinceDown); schema 4 appended the chain slots (base, baseLen, jhash)
// and replaced the full journal prefix with the delta since base.
const stateSchema = 4

// stateSlots is the number of fixed 8-byte words in a payload.
const stateSlots = 31

// stateHeaderSize is the fixed part of the payload before the journal
// delta: the schema, then the slots.
const stateHeaderSize = 4 + 8*stateSlots

// slots lists every durable field in wire order, one pointer per
// 8-byte word. encodeState reads through it and decodeState writes
// through it, so the payload layout is declared here and nowhere else.
// Metrics.Makespan is not a slot: it is only set once the run ends.
func (st *execState) slots() [stateSlots]any {
	m, h := &st.met, &st.health
	return [stateSlots]any{
		&st.fp, &st.seq, &st.nextSeg, &st.t,
		&m.Failures, &m.Lost, &m.Downtime, &m.RecoveryTime, &m.Useful,
		&st.src.Draws, &st.src.Consumed, &m.StoreOverhead,
		// Slot 12 on: the adaptive block.
		&h.commits, &h.ewmaLat, &h.ewmaOver, &h.bits, &h.nbits, &h.attempts, &h.failures,
		&st.level, &st.consec, &st.giveups, &st.replans, &st.lastOverhead,
		&st.lastReplanAt1, &st.lastPersistT, &st.maxRewind, &st.sinceDown,
		&st.base, &st.baseLen, &st.jhash,
	}
}

// slotWord is the wire word of the field p points to.
func slotWord(p any) uint64 {
	switch v := p.(type) {
	case *uint64:
		return *v
	case *float64:
		return math.Float64bits(*v)
	case *int:
		return uint64(*v)
	case *DegradeLevel:
		return uint64(*v)
	}
	panic("exec: payload slot of unsupported type")
}

// setSlot stores wire word w into the field p points to. It reports
// false for a degradation level past LevelDown, which no run persists.
func setSlot(p any, w uint64) bool {
	switch v := p.(type) {
	case *uint64:
		*v = w
	case *float64:
		*v = math.Float64frombits(w)
	case *int:
		*v = int(w)
	case *DegradeLevel:
		if w > uint64(LevelDown) {
			return false
		}
		*v = DegradeLevel(w)
	default:
		panic("exec: payload slot of unsupported type")
	}
	return true
}

// encodeState serializes the checkpoint payload: the schema, the slots,
// then the journal delta in its canonical encoding.
func encodeState(st *execState) []byte {
	out := make([]byte, stateHeaderSize+8+len(st.delta)*eventSize)
	putU32(out, stateSchema)
	for i, p := range st.slots() {
		putU64(out[4+8*i:], slotWord(p))
	}
	putJournal(out[stateHeaderSize:], st.delta)
	return out
}

// errState reports a malformed checkpoint payload — a schema mismatch,
// truncation or out-of-range slot that survived the store codec's CRC,
// i.e. a version skew rather than bit rot. It is loud, not skipped:
// resuming past it would silently discard real state.
var errState = errors.New("exec: malformed checkpoint payload")

// decodeState parses a checkpoint payload.
func decodeState(data []byte) (*execState, error) {
	if len(data) < stateHeaderSize {
		return nil, errState
	}
	if getU32(data) != stateSchema {
		return nil, fmt.Errorf("%w: schema %d, want %d", errState, getU32(data), stateSchema)
	}
	st := &execState{}
	for i, p := range st.slots() {
		if w := getU64(data[4+8*i:]); !setSlot(p, w) {
			return nil, fmt.Errorf("%w: slot %d holds %d", errState, i, w)
		}
	}
	// A chain link precedes its successor, and a chain root extends
	// nothing.
	if st.base >= st.seq && st.base != 0 || st.base == 0 && st.baseLen != 0 {
		return nil, fmt.Errorf("%w: checkpoint %d based on %d at %d events", errState, st.seq, st.base, st.baseLen)
	}
	d, err := UnmarshalJournal(data[stateHeaderSize:])
	if err != nil {
		return nil, err
	}
	st.delta = d
	return st, nil
}
