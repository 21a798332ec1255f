package main

import (
	"fmt"

	"repro/internal/netsim"
	"repro/internal/store"
)

const (
	replicas = 3
	// remoteTimeout is far in the tail of the network's latency (0.2 plus
	// Exp jitter of mean 0.3), so outside a partition window no operation
	// times out in practice.
	remoteTimeout = 4
	runID         = "bench"
	holder        = "bench"
)

// faultyReplica is the only replica whose fault layer injects write
// faults. Faults on the first read wave (s0, s1) trip two replay
// defects of the runtime, so a benchmark run would fail for some seeds:
// a resume whose quorum read repairs a replica consumes that replica's
// next keyed fault and network draws, changing the latency the re-save
// charges; and a restarted process redraws the failed first write of
// its lease record, so the read-back can return the previous epoch's
// record and fence the restart. Writes to the spare still fail, and
// while the partition cuts s0 off the quorum has to ride them out.
const faultyReplica = replicas - 1

// stackSpec is what one process instance of the store stack is built
// from. The replica MemStores and the quota ledger model durable
// services and outlive the instance; everything else is rebuilt per
// instance, as a restarted process would.
type stackSpec struct {
	mems   []*store.MemStore
	ledger *store.QuotaLedger
	net    netsim.Config
	// writeFail is the faulty replica's injected write-failure
	// probability; faultLatency every replica's mean injected latency.
	writeFail, faultLatency float64
	faultSeed               uint64
	leaseTTL                float64
}

// stack is one instance of
// Quota(Lease(Quorum(W=2,R=2; 3×Checked(Remote(Fault(Mem)))))), the
// composition order cmd/chkptexec uses, with a probe above every layer
// when traced.
type stack struct {
	top     store.Store
	lease   *store.LeaseStore
	quorum  *store.QuorumStore
	remotes []*store.RemoteStore
}

func newMems() []*store.MemStore {
	mems := make([]*store.MemStore, replicas)
	for i := range mems {
		mems[i] = store.NewMemStore()
	}
	return mems
}

func buildStack(spec stackSpec, tr *tracer) (*stack, error) {
	net := netsim.New(spec.net)
	st := &stack{}
	reps := make([]store.Store, len(spec.mems))
	for i, mem := range spec.mems {
		plan := store.FaultPlan{Seed: spec.faultSeed + uint64(i), MeanLatency: spec.faultLatency, LogicalKeys: true}
		if i == faultyReplica {
			plan.WriteFail = spec.writeFail
		}
		fault := store.NewFaultStore(tr.wrap("mem", i, mem), plan)
		remote := store.NewRemoteStore(tr.wrap("fault", i, fault), net, spec.net, store.RemoteConfig{
			Remote: fmt.Sprintf("s%d", i), Timeout: remoteTimeout,
		})
		st.remotes = append(st.remotes, remote)
		reps[i] = tr.wrap("codec", i, store.Checked(tr.wrap("remote", i, remote)))
	}
	q, err := store.NewQuorumStore(reps, store.QuorumConfig{W: 2, R: 2})
	if err != nil {
		return nil, err
	}
	st.quorum = q
	st.lease = store.NewLeaseStore(tr.wrap("quorum", -1, q), store.LeaseConfig{Holder: holder, TTL: spec.leaseTTL})
	st.top = tr.wrap("quota", -1, store.NewQuotaStore(spec.ledger, tr.wrap("lease", -1, st.lease)))
	return st, nil
}

// counters adds this instance's public layer counters to m.
func (st *stack) counters(m map[string]float64) {
	ls := st.lease.Stats()
	m["store.lease.validations"] += float64(ls.Validations)
	m["store.lease.renewals"] += float64(ls.Renewals)
	qs := st.quorum.Stats()
	m["store.quorum.repairs"] += float64(qs.Repairs)
	m["store.quorum.hedged"] += float64(qs.Hedged)
	for _, r := range st.remotes {
		m["store.remote.timeouts"] += float64(r.Timeouts())
	}
}

// storedBytes sums the payload bytes the replicas hold for the data run.
func storedBytes(mems []*store.MemStore) (int64, error) {
	var total int64
	for _, m := range mems {
		seqs, err := m.List(runID)
		if err != nil {
			return 0, err
		}
		for _, seq := range seqs {
			b, err := m.Load(runID, seq)
			if err != nil {
				return 0, err
			}
			total += int64(len(b))
		}
	}
	return total, nil
}

// unlimitedQuota keeps the quota layer's accounting on every save
// without ever refusing one.
func unlimitedQuota() *store.QuotaLedger {
	return store.NewQuotaLedger(store.Quota{MaxBytes: 1 << 50, MaxCheckpoints: 1 << 30}, nil)
}
