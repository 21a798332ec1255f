package exec

import (
	"errors"
	"fmt"
	"path/filepath"

	"repro/internal/expectation"
	"repro/internal/failure"
	"repro/internal/netsim"
	"repro/internal/par"
	"repro/internal/store"
)

// RunSpec declares one persisted run: everything about it except its
// compiled Plan. It is plain data — no live store, replanner or func —
// so a run can be read, copied and diffed as one value. Each field is
// an Options/AdaptiveOptions field or a chkptexec flag.
//
// Open creates the bottom backends once; Start assembles a fresh store
// stack over them for every process start, so what survives a restart
// is declared here only: the replica and secondary backends and the
// quota ledger survive, while the network, fault injectors and lease
// session are new in every start (their logical attempt counters
// restart, as the replay contract requires). A zombie is a process
// that keeps executing on the stack it started with.
type RunSpec struct {
	// RunID names the run in the store ("run" when empty).
	RunID string
	// Seed and Salt key the failure source: gap i is drawn from the
	// exponential law at the plan model's λ under (Seed, Salt, i+1)
	// (NewKeyedSource).
	Seed, Salt uint64
	// Store declares the store layout; nil runs store-less, the
	// reference the crash drills compare against.
	Store *StoreLayout
	// SaveRetries is the FixedRetry budget of a non-adaptive run.
	SaveRetries int
	// Adaptive runs the adaptive executor (AdaptiveOptions) with the
	// knobs below; it needs a Store.
	Adaptive bool
	// RetryPolicy is the adaptive save retry policy (nil: NoRetry);
	// ParseRetryPolicy reads its -retry-policy spelling.
	RetryPolicy RetryPolicy
	// ReplanRatio attaches the plan's Replanner when above 1 (see
	// AdaptiveOptions.ReplanRatio); Cooldown, DownAfter, ProbeEvery and
	// SyncEvery are the AdaptiveOptions fields of the same names.
	ReplanRatio float64
	Cooldown    int
	DownAfter   int
	ProbeEvery  int
	SyncEvery   int
	// CrashAfterEvents and CrashAfterSaves are the kill points (Options).
	CrashAfterEvents int
	CrashAfterSaves  int
}

// StoreLayout declares a run's store stack (store.Spec) and where its
// backends live.
type StoreLayout struct {
	// Replicas is the number of backends (0 means 1); several form a
	// quorum of W (0: the majority).
	Replicas int
	W        int
	// Dir holds file backends (Dir/r<i> when replicated); empty keeps
	// them in memory.
	Dir     string
	Faults  *store.FaultPlan
	Net     *netsim.Config
	Timeout float64
	Lease   *store.LeaseConfig
	// Quota is the per-tenant budget of the ledger Open creates.
	Quota *store.Quota
	// Secondary adds the adaptive executor's failover store: in memory,
	// or a file store at SecondaryDir when that is set.
	Secondary    bool
	SecondaryDir string
}

// Plan is what a RunSpec leaves out: the compiled workload, the model
// it was planned under (λ drives the keyed source, D is the downtime),
// and the replanner that re-solves its suffixes.
type Plan struct {
	Workload  *Workload
	Model     expectation.Model
	Replanner Replanner
	// Source, when set, replaces the spec's keyed source (a recorded
	// trace); an execution consumes it.
	Source Source
}

// SpecError is a RunSpec rejection: the field at fault and why.
type SpecError struct {
	Field string
	Err   error
}

func (e *SpecError) Error() string { return "exec: RunSpec." + e.Field + ": " + e.Err.Error() }

func (e *SpecError) Unwrap() error { return e.Err }

// Backends are a layout's bottom layers, created once by Open. They
// survive every restart.
type Backends struct {
	Replicas  []store.Store
	Secondary store.Store // nil without StoreLayout.Secondary
	Ledger    *store.QuotaLedger
}

// Stack is one process start's store stack over Backends.
type Stack struct {
	Store     store.Store
	Secondary store.Store
}

func (l *StoreLayout) replicas() int { return max(l.Replicas, 1) }

// spec declares l's stack over the given backends.
func (l *StoreLayout) spec(backends []store.Store, ledger *store.QuotaLedger) store.Spec {
	return store.Spec{Backends: backends, Faults: l.Faults, Net: l.Net, Timeout: l.Timeout, W: l.W, Lease: l.Lease, Quota: ledger}
}

// Validate rejects a spec no run can honour, with a *SpecError: the
// adaptive executor without a store, and every layout store.Spec
// rejects (out-of-range rates, malformed partition windows, W over one
// replica, LoseOld under a quota).
func (s RunSpec) Validate() error {
	l := s.Store
	if l == nil {
		if s.Adaptive {
			return &SpecError{"Adaptive", errors.New("the adaptive executor needs a store")}
		}
		return nil
	}
	if l.Replicas < 0 {
		return &SpecError{"Store.Replicas", fmt.Errorf("%d: want at least 1", l.Replicas)}
	}
	var ledger *store.QuotaLedger
	if l.Quota != nil {
		ledger = new(store.QuotaLedger)
	}
	if err := l.spec(make([]store.Store, l.replicas()), ledger).Validate(); err != nil {
		return &SpecError{"Store", err}
	}
	return nil
}

// Open validates s and creates its backends; nil when s is store-less.
func (s RunSpec) Open() (*Backends, error) {
	if err := s.Validate(); err != nil || s.Store == nil {
		return nil, err
	}
	l := s.Store
	backend := func(dir string) (store.Store, error) {
		if dir == "" {
			return store.NewMemStore(), nil
		}
		return store.NewFileStore(dir)
	}
	b := &Backends{Replicas: make([]store.Store, l.replicas())}
	for i := range b.Replicas {
		dir := l.Dir
		if dir != "" && len(b.Replicas) > 1 {
			dir = filepath.Join(dir, fmt.Sprintf("r%d", i))
		}
		var err error
		if b.Replicas[i], err = backend(dir); err != nil {
			return nil, err
		}
	}
	if l.Secondary {
		var err error
		if b.Secondary, err = backend(l.SecondaryDir); err != nil {
			return nil, err
		}
	}
	if l.Quota != nil {
		b.Ledger = store.NewQuotaLedger(*l.Quota, nil)
	}
	return b, nil
}

// Start is one process start: it assembles a fresh stack of s's layout
// over b. A store-less spec starts no stack.
func (s RunSpec) Start(b *Backends) (*Stack, error) {
	if s.Store == nil {
		return nil, nil
	}
	primary, err := s.Store.spec(b.Replicas, b.Ledger).Build()
	if err != nil {
		return nil, err
	}
	st := &Stack{Store: primary}
	if b.Secondary != nil {
		if st.Secondary, err = (store.Spec{Backends: []store.Store{b.Secondary}}).Build(); err != nil {
			return nil, err
		}
	}
	return st, nil
}

// Execute runs s on st, a stack started over s's backends (nil for a
// store-less spec). Re-using a stack across calls models one process
// executing again; a restart starts a new stack.
func (s RunSpec) Execute(plan Plan, st *Stack) (*Result, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	opts := Options{
		RunID: s.RunID, Downtime: plan.Model.Downtime, SaveRetries: s.SaveRetries,
		CrashAfterEvents: s.CrashAfterEvents, CrashAfterSaves: s.CrashAfterSaves,
	}
	if st != nil {
		opts.Store = st.Store
	}
	if s.Adaptive {
		opts.Adaptive = &AdaptiveOptions{
			Retry: s.RetryPolicy, ReplanRatio: s.ReplanRatio, Cooldown: s.Cooldown,
			DownAfter: s.DownAfter, ProbeEvery: s.ProbeEvery, SyncEvery: s.SyncEvery,
		}
		if s.ReplanRatio > 1 {
			opts.Adaptive.Replanner = plan.Replanner
		}
		if st != nil {
			opts.Adaptive.Secondary = st.Secondary
		}
	}
	src := plan.Source
	if src == nil {
		src = NewKeyedSource(failure.Exponential{Lambda: plan.Model.Lambda}, s.Seed, s.Salt)
	}
	return Execute(plan.Workload, src, opts)
}

// RunOn is one process over b: Start, then Execute.
func (s RunSpec) RunOn(plan Plan, b *Backends) (*Result, error) {
	st, err := s.Start(b)
	if err != nil {
		return nil, err
	}
	return s.Execute(plan, st)
}

// Boot opens s's backends and starts the first process's stack.
func (s RunSpec) Boot() (*Backends, *Stack, error) {
	b, err := s.Open()
	if err != nil {
		return nil, nil, err
	}
	st, err := s.Start(b)
	return b, st, err
}

// Run boots s and executes it once.
func (s RunSpec) Run(plan Plan) (*Result, error) {
	_, st, err := s.Boot()
	if err != nil {
		return nil, err
	}
	return s.Execute(plan, st)
}

// Tenant is tenant i of s: run <RunID>-t<i> under salt Salt+i. Only
// tenant 0 keeps the kill points.
func (s RunSpec) Tenant(i int) RunSpec {
	t := s
	t.RunID = fmt.Sprintf("%s-t%d", Options{RunID: s.RunID}.runID(), i)
	t.Salt += uint64(i)
	if i > 0 {
		t.CrashAfterEvents, t.CrashAfterSaves = 0, 0
	}
	return t
}

// ExecuteTenants runs tenants 0..n-1 of s concurrently on one shared
// stack.
func (s RunSpec) ExecuteTenants(plan Plan, st *Stack, n int) ([]*Result, []error) {
	results, errs := make([]*Result, n), make([]error, n)
	par.Each(n, n, func(_, i int) error {
		results[i], errs[i] = s.Tenant(i).Execute(plan, st)
		return nil
	})
	return results, errs
}
