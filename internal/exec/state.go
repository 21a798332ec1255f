package exec

import (
	"errors"
	"fmt"
	"reflect"
	"unsafe"
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

// adaptiveRecord is the store-path state a checkpoint carries: store
// health, ladder position, hysteresis anchors and exposure accounting.
type adaptiveRecord struct {
	health        StoreHealth
	level         DegradeLevel
	consec        int // consecutive commit give-ups on the active store
	giveups       int // lifetime commit give-ups
	sinceDown     int // commits skipped since the last ride-out probe
	replans       int // replans applied over the run's lifetime
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
	fp  uint64
	seq uint64 // checkpoint k follows segment k−1, so a resume runs segment seq next
	src SourceState
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
// and replaced the full journal prefix with the delta since base;
// schema 5 dropped five words no resume read: the next segment (always
// seq) and the store health's failure window and attempt counters.
const stateSchema = 5

// stateSlots is the number of fixed 8-byte words in a payload.
const stateSlots = 26

// stateHeaderSize is the fixed part of the payload before the journal
// delta: the schema, then the slots.
const stateHeaderSize = 4 + 8*stateSlots

// slots lists every durable field in wire order, one pointer per
// 8-byte word. stateLayout resolves it once for encodeState and
// decodeState, so the payload layout is declared here and nowhere else.
// Metrics.Makespan is not a slot: it is only set once the run ends.
func (st *execState) slots() [stateSlots]any {
	m, h := &st.met, &st.health
	return [stateSlots]any{
		&st.fp, &st.seq, &st.t,
		&m.Failures, &m.Lost, &m.Downtime, &m.RecoveryTime, &m.Useful,
		&st.src.Draws, &st.src.Consumed, &m.StoreOverhead,
		// Slot 11 on: the adaptive block.
		&h.commits, &h.ewmaLat, &h.ewmaOver,
		&st.level, &st.consec, &st.giveups, &st.replans, &st.lastOverhead,
		&st.lastReplanAt1, &st.lastPersistT, &st.maxRewind, &st.sinceDown,
		&st.base, &st.baseLen, &st.jhash,
	}
}

// slotKind is how a slot's field maps to its wire word.
type slotKind uint8

const (
	kindWord  slotKind = iota // uint64, or float64 as its IEEE bits
	kindInt                   // int, as uint64(v)
	kindLevel                 // DegradeLevel, at most LevelDown
)

// stateLayout is slots() resolved once to each field's offset in
// execState and its kind, so the codec moves words straight between
// the payload and the fields instead of boxing and type-switching every
// slot of every payload.
var stateLayout = func() (layout [stateSlots]struct {
	off  uintptr
	kind slotKind
}) {
	var st execState
	base := uintptr(unsafe.Pointer(&st))
	for i, p := range st.slots() {
		layout[i].off = reflect.ValueOf(p).Pointer() - base
		switch p.(type) {
		case *uint64, *float64:
			layout[i].kind = kindWord
		case *int:
			layout[i].kind = kindInt
		case *DegradeLevel:
			layout[i].kind = kindLevel
		default:
			panic("exec: payload slot of unsupported type")
		}
	}
	return layout
}()

// encodeState serializes the checkpoint payload: the schema, the slots,
// then the journal delta in its canonical encoding.
func encodeState(st *execState) []byte {
	out := make([]byte, stateHeaderSize+8+len(st.delta)*eventSize)
	putU32(out, stateSchema)
	for i, f := range &stateLayout {
		p := unsafe.Add(unsafe.Pointer(st), f.off)
		var w uint64
		switch f.kind {
		case kindWord:
			w = *(*uint64)(p)
		case kindInt:
			w = uint64(*(*int)(p))
		case kindLevel:
			w = uint64(*(*DegradeLevel)(p))
		}
		putU64(out[4+8*i:], w)
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
	for i, f := range &stateLayout {
		p, w := unsafe.Add(unsafe.Pointer(st), f.off), getU64(data[4+8*i:])
		switch f.kind {
		case kindWord:
			*(*uint64)(p) = w
		case kindInt:
			*(*int)(p) = int(w)
		case kindLevel:
			if w > uint64(LevelDown) {
				return nil, fmt.Errorf("%w: slot %d holds %d", errState, i, w)
			}
			*(*DegradeLevel)(p) = DegradeLevel(w)
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
