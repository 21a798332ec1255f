// Package netsim provides a deterministic simulated network for the
// execution runtime: keyed-stream latency, jitter, message loss, and
// scheduled partition windows. Nothing sleeps and nothing reads wall
// clocks — latency is virtual, loss is a seeded draw, and partitions
// are evaluated against the caller-supplied virtual time — so every
// delivery outcome is replay-deterministic in the style of
// store.FaultStore's logical keying: a pure function of (seed, from,
// to, message identity, attempt), independent of how deliveries from
// different runs interleave and of process restarts.
//
// Stores reach the network through store.Spec: a spec with Net set
// puts every replica behind a remote layer on one Network, which
// translates checkpoint operations into messages, charges the drawn
// latency against its per-op deadline, and turns lost or partitioned
// messages into timeouts the executor's degradation ladder can
// classify and ride out.
package netsim

import (
	"sync"

	"repro/internal/rng"
)

// Window schedules one partition: during [Start, End) in virtual time,
// every message with exactly one endpoint in Isolated is cut off. Both
// endpoints inside (or both outside) the isolated set still reach each
// other — the network splits into the isolated minority and the rest,
// and traffic within either side flows normally.
type Window struct {
	// Start and End bound the window in virtual time; End is exclusive.
	Start, End float64
	// Isolated names the endpoints cut off from everyone else.
	Isolated []string
}

// covers reports whether the window partitions a message between from
// and to at virtual time now.
func (w Window) covers(now float64, from, to string) bool {
	if now < w.Start || now >= w.End {
		return false
	}
	return w.isolates(from) != w.isolates(to)
}

func (w Window) isolates(name string) bool {
	for _, n := range w.Isolated {
		if n == name {
			return true
		}
	}
	return false
}

// Config parameterizes the network. A zero config delivers every
// message instantly and reliably.
type Config struct {
	// Seed drives every latency and loss draw.
	Seed uint64
	// Latency is the deterministic base latency added to every
	// delivery.
	Latency float64
	// Jitter, when positive, adds an Exp-distributed extra latency with
	// this mean to every delivery.
	Jitter float64
	// Loss is the per-message probability in [0, 1] that a delivery is
	// silently dropped. The sender learns nothing until its deadline
	// expires, so the remote store charges the full timeout.
	Loss float64
	// Partitions schedules deterministic partition windows.
	Partitions []Window
}

// Message identifies the payload being delivered in logical terms. The
// triple (Kind, Run, Seq), together with the endpoints and a
// per-identity attempt counter, keys the delivery's random draws: the
// same logical delivery always draws the same jitter and the same loss
// decision, no matter what else the network carried in between.
type Message struct {
	// Kind distinguishes operation families (the remote store uses its
	// save/load/list/delete op kinds) so retries of one operation can
	// never perturb another's outcomes.
	Kind uint64
	// Run and Seq name the checkpoint operation being carried.
	Run string
	Seq uint64
}

// Outcome reports one delivery attempt. Latency is always the drawn
// value (base + jitter), even for lost or partitioned messages — the
// caller decides what a non-delivery costs (typically its timeout).
type Outcome struct {
	// Latency is the drawn delivery latency.
	Latency float64
	// Lost reports a seeded message drop.
	Lost bool
	// Partitioned reports that a scheduled window separated the
	// endpoints at delivery time.
	Partitioned bool
}

// OK reports whether the message was delivered.
func (o Outcome) OK() bool { return !o.Lost && !o.Partitioned }

// Stats counts what the network did.
type Stats struct {
	// Messages is the number of delivery attempts.
	Messages uint64
	// Lost counts seeded drops; Partitioned counts window cuts. A
	// message cut by a window is counted as Partitioned only.
	Lost, Partitioned uint64
	// Latency is the total drawn latency across all attempts.
	Latency float64
}

// linkKey identifies a logical delivery for attempt counting.
type linkKey struct {
	from, to uint64
	kind     uint64
	run      string
	seq      uint64
}

// Network is a deterministic simulated network. It is safe for
// concurrent use; outcomes for a given logical delivery are
// independent of interleaving because every draw is keyed, never
// sequenced. Attempt counters reset with the instance, so a process
// restart re-observes the same outcomes the uninterrupted run drew —
// the same contract store.FaultPlan documents.
type Network struct {
	cfg Config

	mu       sync.Mutex
	attempts map[linkKey]uint64
	stats    Stats
}

// New returns a network with the given config.
func New(cfg Config) *Network {
	return &Network{cfg: cfg, attempts: make(map[linkKey]uint64)}
}

// Deliver attempts to carry msg from one endpoint to another at
// virtual time now. The draw order within an attempt is fixed — jitter
// first, then the loss decision — and both draws always happen, so a
// partition window changes only the outcome flag, never the stream
// positions of later draws; killing a window cannot perturb any other
// delivery.
func (n *Network) Deliver(now float64, from, to string, msg Message) Outcome {
	k := linkKey{from: rng.HashString(from), to: rng.HashString(to), kind: msg.Kind, run: msg.Run, seq: msg.Seq}
	n.mu.Lock()
	n.attempts[k]++
	attempt := n.attempts[k]
	n.mu.Unlock()

	// The run key uses the same hash as the store layer's keying, so
	// composed stacks stay coherent.
	s := rng.Derive(n.cfg.Seed, k.from, k.to, msg.Kind, rng.HashString(msg.Run), msg.Seq, attempt)
	out := Outcome{Latency: n.cfg.Latency}
	if n.cfg.Jitter > 0 {
		out.Latency += s.ExpFloat64() * n.cfg.Jitter
	}
	lost := n.cfg.Loss > 0 && s.Float64() < n.cfg.Loss
	if n.partitioned(now, from, to) {
		out.Partitioned = true
	} else if lost {
		out.Lost = true
	}

	n.mu.Lock()
	n.stats.Messages++
	n.stats.Latency += out.Latency
	if out.Partitioned {
		n.stats.Partitioned++
	} else if out.Lost {
		n.stats.Lost++
	}
	n.mu.Unlock()
	return out
}

// Partitioned reports whether a scheduled window separates the two
// endpoints at virtual time now.
func (n *Network) partitioned(now float64, a, b string) bool {
	for _, w := range n.cfg.Partitions {
		if w.covers(now, a, b) {
			return true
		}
	}
	return false
}

// Stats returns a snapshot of the delivery counters.
func (n *Network) Stats() Stats {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.stats
}
