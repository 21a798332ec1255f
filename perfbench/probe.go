package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"

	"repro/internal/store"
)

// storeLayers names the store stack's layers from the top down. A probe
// sits directly above each layer, so a probe's span covers its layer and
// everything below it; the next entry is the layer whose spans nest inside.
var storeLayers = []string{"quota", "lease", "quorum", "codec", "remote", "fault", "mem"}

// Store operation kinds a probe records.
const (
	opSave = iota
	opLoad
	opList
	opDelete
	numOps
)

var opNames = [numOps]string{"save", "load", "list", "delete"}

// span is one store call observed by a probe.
type span struct {
	layer   int // index into storeLayers
	replica int // replica index below the quorum, -1 above it
	op      int
	start   int64 // ns since the tracer's epoch
	end     int64
	bytes   int
	failed  bool
}

// tracer collects spans from every probe of one traced operation. It is
// safe for concurrent use: the quorum may call its replicas from several
// goroutines.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) record(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// probe is a pass-through store.Store that records one span per call.
// It implements Unwrap, so every capability walk (BindClock, LastOp,
// FindSyncer, FindScrubber, AcquireLease) sees the layers below it, and
// it draws no randomness and charges no virtual time, so a probed stack
// replays exactly like an unprobed one.
type probe struct {
	inner   store.Store
	tr      *tracer
	layer   int
	replica int
}

func (p *probe) Unwrap() store.Store { return p.inner }

func (p *probe) done(op int, start int64, bytes int, err error) {
	p.tr.record(span{layer: p.layer, replica: p.replica, op: op, start: start, end: p.tr.now(), bytes: bytes, failed: err != nil})
}

func (p *probe) Save(run string, seq uint64, payload []byte) error {
	start := p.tr.now()
	err := p.inner.Save(run, seq, payload)
	p.done(opSave, start, len(payload), err)
	return err
}

func (p *probe) Load(run string, seq uint64) ([]byte, error) {
	start := p.tr.now()
	payload, err := p.inner.Load(run, seq)
	p.done(opLoad, start, len(payload), err)
	return payload, err
}

func (p *probe) List(run string) ([]uint64, error) {
	start := p.tr.now()
	seqs, err := p.inner.List(run)
	p.done(opList, start, 0, err)
	return seqs, err
}

func (p *probe) Delete(run string, seq uint64) error {
	start := p.tr.now()
	err := p.inner.Delete(run, seq)
	p.done(opDelete, start, 0, err)
	return err
}

// wrap places a probe above s for the named layer; with a nil tracer it
// returns s unchanged, so untraced stacks carry no probes at all.
func (t *tracer) wrap(layer string, replica int, s store.Store) store.Store {
	if t == nil {
		return s
	}
	for i, name := range storeLayers {
		if name == layer {
			return &probe{inner: s, tr: t, layer: i, replica: replica}
		}
	}
	panic("perfbench: unknown store layer " + layer)
}

// opStats aggregates one (layer, op) pair.
type opStats struct {
	calls, errors int
	bytes         int64
	selfNS        int64
}

// layerStats returns per-(layer, op) totals, with replicas summed. Self
// time is a span's duration minus the union of the next layer's spans
// inside it: the union, not the sum, so concurrent replica calls are not
// counted twice. The benchmark drives one operation at a time, so every
// span that lies inside a parent's interval was caused by that parent.
func (t *tracer) layerStats() [][numOps]opStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	byLayer := make([][]span, len(storeLayers))
	for _, s := range t.spans {
		byLayer[s.layer] = append(byLayer[s.layer], s)
	}
	for _, ss := range byLayer {
		sort.Slice(ss, func(a, b int) bool { return ss[a].start < ss[b].start })
	}
	out := make([][numOps]opStats, len(storeLayers))
	for l, ss := range byLayer {
		var children []span
		if l+1 < len(byLayer) {
			children = byLayer[l+1]
		}
		for _, s := range ss {
			st := &out[l][s.op]
			st.calls++
			st.bytes += int64(s.bytes)
			if s.failed {
				st.errors++
			}
			st.selfNS += s.end - s.start - coveredNS(children, s.start, s.end)
		}
	}
	return out
}

// coveredNS returns how much of [lo, hi] the union of the spans lying
// inside it covers; spans must be sorted by start.
func coveredNS(spans []span, lo, hi int64) int64 {
	i := sort.Search(len(spans), func(i int) bool { return spans[i].start >= lo })
	var covered, curLo, curHi int64
	open := false
	for ; i < len(spans) && spans[i].start <= hi; i++ {
		s := spans[i]
		if s.end > hi {
			continue
		}
		switch {
		case !open:
			curLo, curHi, open = s.start, s.end, true
		case s.start > curHi:
			covered += curHi - curLo
			curLo, curHi = s.start, s.end
		case s.end > curHi:
			curHi = s.end
		}
	}
	if open {
		covered += curHi - curLo
	}
	return covered
}

// writeChromeTrace writes the spans as Chrome trace-event JSON (loadable
// in Perfetto or chrome://tracing): one complete event per span, one
// thread per (layer, replica).
func (t *tracer) writeChromeTrace(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	if _, err := w.WriteString("[\n"); err != nil {
		return err
	}
	enc := json.NewEncoder(w)
	for i, s := range t.spans {
		if i > 0 {
			if _, err := w.WriteString(","); err != nil {
				return err
			}
		}
		name := fmt.Sprintf("%s.%s", storeLayers[s.layer], opNames[s.op])
		if s.replica >= 0 {
			name = fmt.Sprintf("%s[s%d]", name, s.replica)
		}
		ev := event{
			Name: name, Ph: "X", Ts: float64(s.start) / 1e3, Dur: float64(s.end-s.start) / 1e3,
			Pid: 1, Tid: s.layer*8 + s.replica + 1,
			Args: map[string]any{"bytes": s.bytes, "failed": s.failed},
		}
		if err := enc.Encode(ev); err != nil {
			return err
		}
	}
	if _, err := w.WriteString("]\n"); err != nil {
		return err
	}
	if err := w.Flush(); err != nil {
		return err
	}
	return f.Close()
}
