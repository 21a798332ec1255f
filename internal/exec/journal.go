package exec

import (
	"bytes"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
)

// EventKind classifies journal events.
type EventKind uint8

// Journal event kinds. The numeric values are part of the checkpoint
// wire format — append new kinds, never renumber.
const (
	// EvSegmentStart opens an attempt at a segment; Arg is the segment's
	// first position in the order. Emitted once per attempt, so a segment
	// hit by k failures contributes k+1 of these.
	EvSegmentStart EventKind = iota + 1
	// EvTaskDone records completion of one task; Arg is the task ID.
	EvTaskDone
	// EvFailure records a failure strike; Time is the failure instant.
	EvFailure
	// EvRestored records the completion of downtime + recovery after a
	// failure; execution state is back at the last checkpoint.
	EvRestored
	// EvCheckpoint records a committed checkpoint; Seq is its sequence
	// number. The event is appended before the state is encoded, so it is
	// always part of the persisted journal prefix.
	EvCheckpoint
	// EvComplete closes the journal; Time is the final makespan.
	EvComplete
	// EvHealth records the store-health estimate at a commit, BEFORE the
	// state is encoded (runs with a store only): Arg is the degradation
	// level, Seq holds Float64bits of the effective checkpoint-cost
	// estimate C_eff the replan decision is about to use.
	EvHealth
	// EvReplan records an online replan spliced at the frontier, BEFORE
	// the state is encoded: Arg is the frontier position (first
	// unexecuted position), Seq holds Float64bits of the per-checkpoint
	// overhead the suffix was re-solved with. A resume rebuilds the
	// spliced plan from the last of these events alone: the replanner is
	// pure, and that replan's suffix covers every segment from the
	// checkpoint journaled just before it, which is at or before the
	// resume point.
	EvReplan
	// EvSaveResult records the outcome of one commit's save, AFTER the
	// state was encoded (so it lands in the NEXT checkpoint's persisted
	// prefix, and a resume regenerates it by re-saving the restored
	// payload): Arg packs attempts<<3 | outcome code (see saveCode*),
	// Seq holds Float64bits of the commit's total store overhead
	// (injected latency + backoff delays), Time is the clock after that
	// overhead was served.
	EvSaveResult
	// EvDegrade records a post-save degradation-ladder move (failover to
	// the secondary store, persistence-off, or re-admission of a down
	// store by a successful ride-out probe): Arg is the new level.
	EvDegrade
)

// String names the kind.
func (k EventKind) String() string {
	switch k {
	case EvSegmentStart:
		return "segment-start"
	case EvTaskDone:
		return "task-done"
	case EvFailure:
		return "failure"
	case EvRestored:
		return "restored"
	case EvCheckpoint:
		return "checkpoint"
	case EvComplete:
		return "complete"
	case EvHealth:
		return "health"
	case EvReplan:
		return "replan"
	case EvSaveResult:
		return "save-result"
	case EvDegrade:
		return "degrade"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Event is one journal entry. Time is the virtual clock at the event;
// Arg and Seq are kind-specific (see the kind constants). The zero
// fields of unused slots are written as zeros so the encoding is a pure
// function of the event.
type Event struct {
	Kind EventKind
	Time float64
	Arg  int32
	Seq  uint64
}

// Journal is the structured record of one execution: every attempt,
// task completion, failure, restore and checkpoint, in order. Its
// Marshal encoding is canonical — byte-for-byte equality of marshaled
// journals is the replay-determinism acceptance criterion ("a resumed
// run is indistinguishable from an uninterrupted one").
type Journal []Event

// eventSize is the fixed wire size of one event:
// kind u8 | time f64 | arg i32 | seq u64.
const eventSize = 1 + 8 + 4 + 8

// Marshal encodes the journal canonically: u64 count, then fixed-width
// little-endian events.
func (j Journal) Marshal() []byte {
	out := make([]byte, 8+len(j)*eventSize)
	putJournal(out, j)
	return out
}

// putJournal writes j's canonical encoding into b[:8+len(j)*eventSize].
func putJournal(b []byte, j Journal) {
	putU64(b, uint64(len(j)))
	for i, e := range j {
		putEvent(b[8+i*eventSize:], e)
	}
}

// putEvent writes e's canonical encoding into b[:eventSize].
func putEvent(b []byte, e Event) {
	b[0] = byte(e.Kind)
	putU64(b[1:], math.Float64bits(e.Time))
	putU32(b[9:], uint32(e.Arg))
	putU64(b[13:], e.Seq)
}

// FNV-1a 64-bit parameters (hash/fnv's New64a).
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// hashEvent folds e's canonical encoding into the running FNV-1a hash h
// without allocating: hashing a journal event by event from fnvOffset64
// gives the FNV-1a of its events' encodings (the Marshal body without
// the count prefix), so the executor keeps it current in O(1) per event.
func hashEvent(h uint64, e Event) uint64 {
	var b [eventSize]byte
	putEvent(b[:], e)
	for _, c := range b {
		h ^= uint64(c)
		h *= fnvPrime64
	}
	return h
}

// errJournal reports a malformed journal encoding.
var errJournal = errors.New("exec: malformed journal encoding")

// UnmarshalJournal decodes a canonical journal encoding.
func UnmarshalJournal(data []byte) (Journal, error) {
	if len(data) < 8 {
		return nil, errJournal
	}
	n := getU64(data)
	if n > uint64((len(data)-8)/eventSize) || len(data) != 8+int(n)*eventSize {
		return nil, errJournal
	}
	j := make(Journal, n)
	off := 8
	for i := range j {
		j[i] = Event{
			Kind: EventKind(data[off]),
			Time: math.Float64frombits(getU64(data[off+1:])),
			Arg:  int32(getU32(data[off+9:])),
			Seq:  getU64(data[off+13:]),
		}
		off += eventSize
	}
	return j, nil
}

// Equal reports byte-for-byte equality of the canonical encodings.
func (j Journal) Equal(other Journal) bool {
	return bytes.Equal(j.Marshal(), other.Marshal())
}

// Hash returns a 64-bit digest of the canonical encoding, for compact
// journal-identity assertions in experiment output.
func (j Journal) Hash() uint64 {
	h := fnv.New64a()
	h.Write(j.Marshal())
	return h.Sum64()
}

// Count returns the number of events of the given kind.
func (j Journal) Count(kind EventKind) int {
	n := 0
	for _, e := range j {
		if e.Kind == kind {
			n++
		}
	}
	return n
}

// Compute is the journal's compute trajectory: every event except the
// store path's (health, replan, save result, ladder move). On a store
// that charges no latency or backoff it equals the journal of the same
// run without a store.
func (j Journal) Compute() Journal {
	var out Journal
	for _, e := range j {
		switch e.Kind {
		case EvHealth, EvReplan, EvSaveResult, EvDegrade:
		default:
			out = append(out, e)
		}
	}
	return out
}

// putU32 writes v little-endian into b[:4].
func putU32(b []byte, v uint32) {
	_ = b[3]
	b[0] = byte(v)
	b[1] = byte(v >> 8)
	b[2] = byte(v >> 16)
	b[3] = byte(v >> 24)
}

// getU32 reads a little-endian u32 from b[:4].
func getU32(b []byte) uint32 {
	_ = b[3]
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}

// getU64 reads a little-endian u64 from b[:8].
func getU64(b []byte) uint64 {
	_ = b[7]
	return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
}
