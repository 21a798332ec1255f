package store

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/netsim"
)

// describe renders a built stack by walking Unwrap from the top; a
// quorum renders each replica stack in index order, and a backend
// renders as its index in backends.
func describe(t *testing.T, s Store, backends []Store) string {
	t.Helper()
	for i, b := range backends {
		if s == b {
			return fmt.Sprintf("backend%d", i)
		}
	}
	var name string
	switch v := s.(type) {
	case *QuotaStore:
		name = "quota"
	case *LeaseStore:
		name = "lease " + v.cfg.holder()
	case checked:
		name = "checked"
	case *RemoteStore:
		name = fmt.Sprintf("remote %s/%s ttl=%g", localEndpoint, v.cfg.Remote, v.Timeout())
	case *FaultStore:
		name = fmt.Sprintf("fault seed=%d", v.plan.Seed)
	case *QuorumStore:
		reps := make([]string, len(v.replicas))
		for i, r := range v.replicas {
			reps[i] = describe(t, r, backends)
		}
		return fmt.Sprintf("quorum w=%d r=%d[%s]", v.w, v.r, strings.Join(reps, ", "))
	default:
		t.Fatalf("unexpected layer %T", s)
	}
	u, ok := s.(Unwrapper)
	if !ok {
		t.Fatalf("layer %T does not unwrap", s)
	}
	return name + "(" + describe(t, u.Unwrap(), backends) + ")"
}

// TestSpecLayerOrder pins the one layer order Build assembles,
// Quota(Lease(Quorum(Checked(Remote_i(Fault_i(Backends[i])))))), for
// every combination of optional layers, plus the replica naming:
// replica i is endpoint s<i> and draws faults from Seed+i.
func TestSpecLayerOrder(t *testing.T) {
	ledger := NewQuotaLedger(Quota{}, nil)
	for mask := 0; mask < 32; mask++ {
		faults, net, quorum, lease, quota := mask&1 != 0, mask&2 != 0, mask&4 != 0, mask&8 != 0, mask&16 != 0
		n := 1
		if quorum {
			n = 3
		}
		spec := Spec{Timeout: 2.5}
		for i := 0; i < n; i++ {
			spec.Backends = append(spec.Backends, NewMemStore())
		}
		if faults {
			spec.Faults = &FaultPlan{Seed: 40, WriteFail: 0.1}
		}
		if net {
			spec.Net = &netsim.Config{Seed: 3, Latency: 0.1}
		}
		if lease {
			spec.Lease = &LeaseConfig{Holder: "h", TTL: 5}
		}
		if quota {
			spec.Quota = ledger
		}
		st, err := spec.Build()
		if err != nil {
			t.Fatalf("mask %05b: %v", mask, err)
		}

		reps := make([]string, n)
		for i := range reps {
			s := fmt.Sprintf("backend%d", i)
			if faults {
				s = fmt.Sprintf("fault seed=%d(%s)", 40+i, s)
			}
			if net {
				s = fmt.Sprintf("remote exec/s%d ttl=2.5(%s)", i, s)
			}
			reps[i] = "checked(" + s + ")"
		}
		want := reps[0]
		if quorum {
			want = "quorum w=2 r=2[" + strings.Join(reps, ", ") + "]"
		}
		if lease {
			want = "lease h(" + want + ")"
		}
		if quota {
			want = "quota(" + want + ")"
		}
		if got := describe(t, st, spec.Backends); got != want {
			t.Errorf("mask %05b:\n got %s\nwant %s", mask, got, want)
		}
		if q, ok := find[*QuotaStore](st); ok && q.ledger != ledger {
			t.Errorf("mask %05b: quota layer bound to a different ledger", mask)
		}
		if q, ok := find[*QuorumStore](st); ok && net {
			// One network carries every replica.
			first, _ := find[*RemoteStore](q.replicas[0])
			for _, r := range q.replicas[1:] {
				if rs, _ := find[*RemoteStore](r); rs.net != first.net {
					t.Errorf("mask %05b: replicas on different networks", mask)
				}
			}
		}
	}
}

// TestSpecRebuildIsRestart: a second Build over the same backends is a
// fresh process — new network, new fault injectors, new lease session —
// so the same operation sequence draws the same latencies and fault
// outcomes again, while replaying it on the first instance does not.
func TestSpecRebuildIsRestart(t *testing.T) {
	spec := Spec{
		Backends: []Store{NewMemStore(), NewMemStore(), NewMemStore()},
		Faults:   &FaultPlan{Seed: 11, WriteFail: 0.2, ReadFail: 0.2, MeanLatency: 0.3},
		Net:      &netsim.Config{Seed: 12, Latency: 0.05, Jitter: 0.2, Loss: 0.1},
		Timeout:  1.5,
		Lease:    &LeaseConfig{Holder: "h", TTL: 1e9},
		Quota:    NewQuotaLedger(Quota{}, nil),
	}
	const run = "r"
	// trace runs the op sequence and renders each op's charged latency
	// and outcome.
	trace := func(st Store) []string {
		var out []string
		note := func(op string, err error) {
			last, _ := LastOp(st, run)
			out = append(out, fmt.Sprintf("%s lat=%v err=%v", op, last.Latency, err))
		}
		for seq := uint64(1); seq <= 8; seq++ {
			note(fmt.Sprintf("save %d", seq), st.Save(run, seq, []byte{byte(seq), 1, 2, 3}))
		}
		_, err := st.List(run)
		note("list", err)
		for seq := uint64(1); seq <= 8; seq++ {
			_, err := st.Load(run, seq)
			note(fmt.Sprintf("load %d", seq), err)
		}
		return out
	}
	build := func() Store {
		st, err := spec.Build()
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := AcquireLease(st, run); err != nil {
			t.Fatal(err)
		}
		return st
	}

	first := build()
	want := trace(first)
	failed := 0
	for _, line := range want {
		if !strings.HasSuffix(line, "err=<nil>") {
			failed++
		}
	}
	if failed == 0 {
		t.Fatal("no operation failed: the sequence exercises no fault outcome")
	}
	if got := trace(build()); strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("rebuilt stack diverged:\n got %q\nwant %q", got, want)
	}
	if again := trace(first); strings.Join(again, "\n") == strings.Join(want, "\n") {
		t.Error("replaying on the first instance redrew the same outcomes: attempt counters did not advance")
	}
}

// TestSpecRejects: Build refuses values no layer can honour, naming
// the offending field, and accepts the boundaries.
func TestSpecRejects(t *testing.T) {
	nan := math.NaN()
	one := []Store{NewMemStore()}
	three := []Store{NewMemStore(), NewMemStore(), NewMemStore()}
	ledger := NewQuotaLedger(Quota{}, nil)
	net := func(mod func(*netsim.Config)) *netsim.Config {
		c := netsim.Config{Seed: 1, Latency: 0.1}
		mod(&c)
		return &c
	}
	window := func(start, end float64) *netsim.Config {
		return net(func(c *netsim.Config) {
			c.Partitions = []netsim.Window{{Start: start, End: end, Isolated: []string{"s0"}}}
		})
	}
	for name, spec := range map[string]Spec{
		"no backends":           {},
		"negative timeout":      {Backends: one, Timeout: -1},
		"NaN timeout":           {Backends: one, Timeout: nan},
		"WriteFail above 1":     {Backends: one, Faults: &FaultPlan{WriteFail: 1.5}},
		"TornWrite negative":    {Backends: one, Faults: &FaultPlan{TornWrite: -0.1}},
		"write bands above 1":   {Backends: one, Faults: &FaultPlan{WriteFail: 0.9, TornWrite: 0.5}},
		"LoseOld NaN":           {Backends: one, Faults: &FaultPlan{LoseOld: nan}},
		"ReadFail above 1":      {Backends: one, Faults: &FaultPlan{ReadFail: 2}},
		"negative MeanLatency":  {Backends: one, Faults: &FaultPlan{MeanLatency: -1}},
		"NaN MeanLatency":       {Backends: one, Faults: &FaultPlan{MeanLatency: nan}},
		"negative latency":      {Backends: one, Net: net(func(c *netsim.Config) { c.Latency = -3 })},
		"NaN latency":           {Backends: one, Net: net(func(c *netsim.Config) { c.Latency = nan })},
		"negative jitter":       {Backends: one, Net: net(func(c *netsim.Config) { c.Jitter = -1 })},
		"NaN jitter":            {Backends: one, Net: net(func(c *netsim.Config) { c.Jitter = nan })},
		"loss above 1":          {Backends: one, Net: net(func(c *netsim.Config) { c.Loss = 1.5 })},
		"negative loss":         {Backends: one, Net: net(func(c *netsim.Config) { c.Loss = -0.5 })},
		"NaN loss":              {Backends: one, Net: net(func(c *netsim.Config) { c.Loss = nan })},
		"window NaN end":        {Backends: one, Net: window(1, nan)},
		"window NaN start":      {Backends: one, Net: window(nan, 5)},
		"window negative start": {Backends: one, Net: window(-1, 5)},
		"window empty":          {Backends: one, Net: window(5, 5)},
		"window reversed":       {Backends: one, Net: window(5, 1)},
		"quota with LoseOld":    {Backends: one, Faults: &FaultPlan{LoseOld: 0.2}, Quota: ledger},
		"W above replicas":      {Backends: three, W: 4},
		"negative W":            {Backends: three, W: -1},
		"W over one backend":    {Backends: one, W: 2},
	} {
		if st, err := spec.Build(); err == nil {
			t.Errorf("%s: accepted, built %T", name, st)
		}
	}
	for name, spec := range map[string]Spec{
		"zero spec over one backend": {Backends: one},
		"certain faults":             {Backends: one, Faults: &FaultPlan{WriteFail: 1, TornWrite: 0, ReadFail: 1}},
		"certain loss":               {Backends: one, Net: net(func(c *netsim.Config) { c.Loss = 1 })},
		"window open to +Inf":        {Backends: one, Net: window(0, math.Inf(1))},
		"quota without LoseOld":      {Backends: one, Faults: &FaultPlan{WriteFail: 0.5}, Quota: ledger},
	} {
		if _, err := spec.Build(); err != nil {
			t.Errorf("%s: rejected: %v", name, err)
		}
	}
}
