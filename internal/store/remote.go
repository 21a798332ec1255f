package store

import (
	"errors"
	"fmt"

	"repro/internal/netsim"
)

// ErrTimeout reports a remote operation that missed its per-op
// deadline: the message was lost, cut off by a partition window, or
// simply drew a latency beyond the timeout. The executor classifies it
// as transient — retry, back off, degrade, ride out the window.
var ErrTimeout = errors.New("store: remote operation timed out")

// localEndpoint names the executor side of every remote hop.
const localEndpoint = "exec"

// RemoteConfig parameterizes a RemoteStore.
type RemoteConfig struct {
	// Remote names the store side's network endpoint ("store" when
	// empty); the executor side is always "exec". Partition windows
	// isolate endpoints by these names.
	Remote string
	// Timeout is the per-operation deadline in virtual time. A message
	// that is lost, partitioned, or slower than this charges exactly
	// Timeout and fails with ErrTimeout. When zero or negative, a
	// default of 8×(base latency + jitter mean), floor 1, applies.
	Timeout float64
}

// timeout resolves the effective deadline against the network config.
func (c RemoteConfig) timeout(net netsim.Config) float64 {
	if c.Timeout > 0 {
		return c.Timeout
	}
	d := 8 * (net.Latency + net.Jitter)
	if d < 1 {
		d = 1
	}
	return d
}

// RemoteStore routes Save/Load/List/Delete through a simulated network
// with per-op timeouts. Each operation sends one logical message
// (modeling the full request/response round trip); if the network
// loses it, a partition window cuts it, or the drawn latency exceeds
// the deadline, the operation charges exactly the timeout, fails with
// ErrTimeout, and never reaches the inner store. Otherwise the drawn
// latency — plus any virtual latency the inner stack itself injects —
// is charged and the inner operation runs.
//
// Partition windows are evaluated at the run's bound virtual time
// (BindClock); an unbound run reads time zero. Like FaultStore, every
// outcome is a pure function of the logical operation identity and its
// attempt ordinal, so concurrent runs never perturb each other and
// kill/resume replays re-observe identical outcomes.
type RemoteStore struct {
	inner   Store
	tracker lastOpReader // inner's latency tracker, nil if none
	net     *netsim.Network
	cfg     RemoteConfig
	ttl     float64

	opLedger[remoteRun, *remoteRun] // its mutex guards timeouts too
	timeouts                        uint64
}

// remoteRun is what one run's operations need at this layer, resolved
// at the run's first operation: its ledger entry, its bound clock, its
// link to the store endpoint and its entry in the inner tracker. The
// run's driver reads it without a lock (see lastOpReader.runOp).
type remoteRun struct {
	runHead
	clock func() float64 // nil until BindClock: the run reads time zero
	link  *netsim.Link
	inner *RunOp // nil when the inner stack tracks no latency
}

// NewRemoteStore wraps inner behind the simulated network.
func NewRemoteStore(inner Store, net *netsim.Network, netCfg netsim.Config, cfg RemoteConfig) *RemoteStore {
	if cfg.Remote == "" {
		cfg.Remote = "store"
	}
	tracker, _ := find[lastOpReader](inner)
	return &RemoteStore{
		inner:   inner,
		tracker: tracker,
		net:     net,
		cfg:     cfg,
		ttl:     cfg.timeout(netCfg),
	}
}

// run returns run's record, creating it on first use.
func (r *RemoteStore) run(run string) *remoteRun {
	if rr := r.lookup(run); rr != nil {
		return rr
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.missedLocked(run, func() *remoteRun { return r.newRun(run) })
}

// newRun resolves a new run's link and its entry in the inner tracker.
func (r *RemoteStore) newRun(run string) *remoteRun {
	rr := &remoteRun{link: r.net.Link(localEndpoint, r.cfg.Remote, run)}
	if r.tracker != nil {
		rr.inner = r.tracker.runOp(run)
	}
	return rr
}

// runOp resolves run's ledger entry for the layers that measure this
// one.
func (r *RemoteStore) runOp(run string) *RunOp { return &r.run(run).op }

// BindClock registers run's virtual-time source, used to evaluate
// partition windows at delivery time. Binding again replaces it.
func (r *RemoteStore) BindClock(run string, now func() float64) {
	r.mu.Lock()
	r.recordLocked(run, func() *remoteRun { return r.newRun(run) }).clock = now
	r.mu.Unlock()
}

// Timeout returns the effective per-operation deadline.
func (r *RemoteStore) Timeout() float64 { return r.ttl }

// Timeouts returns how many operations have timed out.
func (r *RemoteStore) Timeouts() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.timeouts
}

// Unwrap exposes the inner store for capability discovery.
func (r *RemoteStore) Unwrap() Store { return r.inner }

// transit sends the operation's message on the run's link at virtual
// time now. It returns the network latency to charge and a nil error on
// delivery, or ErrTimeout (with the timeout as the charged latency)
// when the message is lost, partitioned, or too slow.
func (r *RemoteStore) transit(link *netsim.Link, now float64, kind uint64, opName, run string, seq uint64) (float64, error) {
	out := link.Deliver(now, kind, seq)
	if !out.OK() || out.Latency > r.ttl {
		why := "slow"
		switch {
		case out.Partitioned:
			why = "partitioned"
		case out.Lost:
			why = "lost"
		}
		return r.ttl, fmt.Errorf("store: %s %s/%d at t=%.6g (%s): %w", opName, run, seq, now, why, ErrTimeout)
	}
	return out.Latency, nil
}

// do sends the operation's message and, on delivery, runs op against
// the inner store. It books one ledger entry whose latency is the
// network transit plus any virtual latency the inner stack charged, so
// LastOp reports one coherent per-op cost for a composed
// Remote(Fault(...)) stack — or the full timeout when the message never
// arrived.
func (r *RemoteStore) do(kind uint64, opName, run string, seq uint64, op func() error) error {
	rr := r.run(run)
	now := 0.0
	if rr.clock != nil {
		now = rr.clock()
	}
	lat, err := r.transit(rr.link, now, kind, opName, run, seq)
	timedOut := err != nil
	if !timedOut {
		var inner float64
		inner, err = measure(rr.inner, op)
		lat += inner
	}
	r.mu.Lock()
	rr.op.book(lat)
	if timedOut {
		r.timeouts++
	}
	r.mu.Unlock()
	return err
}

// Save routes the save through the network, then the inner store.
func (r *RemoteStore) Save(run string, seq uint64, payload []byte) error {
	return r.do(opSave, "save", run, seq, func() error { return r.inner.Save(run, seq, payload) })
}

// Load routes the load through the network, then the inner store.
func (r *RemoteStore) Load(run string, seq uint64) (payload []byte, err error) {
	err = r.do(opLoad, "load", run, seq, func() (ierr error) {
		payload, ierr = r.inner.Load(run, seq)
		return ierr
	})
	return payload, err
}

// List routes the enumeration through the network (seq 0, like the
// fault layer), then the inner store.
func (r *RemoteStore) List(run string) (seqs []uint64, err error) {
	err = r.do(opList, "list", run, 0, func() (ierr error) {
		seqs, ierr = r.inner.List(run)
		return ierr
	})
	return seqs, err
}

// Delete routes the delete through the network, then the inner store.
func (r *RemoteStore) Delete(run string, seq uint64) error {
	return r.do(opDelete, "delete", run, seq, func() error { return r.inner.Delete(run, seq) })
}

var (
	_ Store       = (*RemoteStore)(nil)
	_ ClockBinder = (*RemoteStore)(nil)
)
