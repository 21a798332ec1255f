package store

import (
	"fmt"
	"math"
	"strconv"

	"repro/internal/netsim"
)

// Spec declares a store stack. Build assembles the one supported order,
//
//	Quota(Lease(Quorum(Checked(Remote_i(Fault_i(Backends[i]))))))
//
// leaving out every layer the spec does not ask for (the codec is
// always there): faults tear sealed frames for the codec to detect, the
// codec above the network hop turns damaged deliveries into ErrCorrupt
// replies the quorum out-votes and repairs, lease records ride the
// codec and quorum they guard, and the quota meters what the tenant
// retains however it is replicated. Backends are wrapped, never
// replaced, and each Build makes a fresh network, fault injectors and
// lease session over them: building again is a process restart.
type Spec struct {
	Backends []Store        // one per replica; several form a quorum
	Faults   *FaultPlan     // fault injector per replica; replica i draws from Seed+i
	Net      *netsim.Config // one network for all replicas; replica i is endpoint "s<i>"
	Timeout  float64        // per-op remote deadline; zero picks RemoteConfig's default
	W        int            // quorum write size; zero picks the majority (reads always use it)
	Lease    *LeaseConfig   // epoch-fenced write lease
	Quota    *QuotaLedger   // retained-state budget, metered outermost
}

// Build validates the spec and assembles its stack.
func (s Spec) Build() (Store, error) {
	if err := s.validate(); err != nil {
		return nil, err
	}
	var net *netsim.Network
	if s.Net != nil {
		net = netsim.New(*s.Net)
	}
	var st Store
	if len(s.Backends) == 1 {
		st = s.replica(0, net)
	} else {
		reps := make([]Store, len(s.Backends))
		for i := range reps {
			reps[i] = s.replica(i, net)
		}
		q, err := NewQuorumStore(reps, QuorumConfig{W: s.W})
		if err != nil {
			return nil, err
		}
		st = q
	}
	if s.Lease != nil {
		st = NewLeaseStore(st, *s.Lease)
	}
	if s.Quota != nil {
		st = NewQuotaStore(s.Quota, st)
	}
	return st, nil
}

// replica assembles Checked(Remote_i(Fault_i(Backends[i]))).
func (s *Spec) replica(i int, net *netsim.Network) Store {
	st := s.Backends[i]
	if s.Faults != nil {
		plan := *s.Faults
		plan.Seed += uint64(i)
		st = NewFaultStore(st, plan)
	}
	if net != nil {
		name := "s0" // a constant: a single remote allocates no name
		if i > 0 {
			name = "s" + strconv.Itoa(i)
		}
		st = NewRemoteStore(st, net, *s.Net, RemoteConfig{Remote: name, Timeout: s.Timeout})
	}
	return Checked(st)
}

// validate rejects values no layer can honour: negative or NaN
// durations, probabilities outside [0, 1] (WriteFail+TornWrite too: a
// save's fail and tear bands split one draw), malformed partition windows,
// a write quorum without a quorum, and silent loss under a quota (the
// ledger would bill for saves the injector ate).
func (s *Spec) validate() error {
	if len(s.Backends) == 0 {
		return fmt.Errorf("store: spec has no backends")
	}
	if len(s.Backends) == 1 && s.W != 0 {
		return fmt.Errorf("store: spec write quorum %d over a single backend: quorum sizes need several replicas", s.W)
	}
	var f FaultPlan
	if s.Faults != nil {
		f = *s.Faults
	}
	var n netsim.Config
	if s.Net != nil {
		n = *s.Net
	}
	inf := math.Inf(1)
	for _, c := range [...]struct {
		name   string
		v, max float64
	}{
		{"timeout", s.Timeout, inf}, {"fault WriteFail", f.WriteFail, 1}, {"fault TornWrite", f.TornWrite, 1},
		{"fault WriteFail+TornWrite", f.WriteFail + f.TornWrite, 1},
		{"fault LoseOld", f.LoseOld, 1}, {"fault ReadFail", f.ReadFail, 1}, {"fault MeanLatency", f.MeanLatency, inf},
		{"network latency", n.Latency, inf}, {"network jitter", n.Jitter, inf}, {"network loss", n.Loss, 1},
	} {
		if !(c.v >= 0 && c.v <= c.max) { // NaN fails too
			return fmt.Errorf("store: spec %s %v: want a value in [0, %v]", c.name, c.v, c.max)
		}
	}
	for _, w := range n.Partitions {
		if math.IsNaN(w.Start) || math.IsNaN(w.End) || w.Start < 0 || w.End <= w.Start {
			return fmt.Errorf("store: partition window [%v, %v): want 0 <= start < end", w.Start, w.End)
		}
	}
	if s.Quota != nil && f.LoseOld > 0 {
		return fmt.Errorf("store: fault LoseOld %v under a quota: silent loss would desync the ledger", f.LoseOld)
	}
	return nil
}
