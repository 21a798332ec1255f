package exec

import (
	"errors"
	"fmt"

	"repro/internal/store"
)

// ErrDrill reports a fencing drill that could not be carried out or
// whose zombie interleaved: a check failed, not a run.
var ErrDrill = errors.New("exec: fencing drill")

// FencingReport is what one FencingDrill observed.
type FencingReport struct {
	// A is executor a's killed invocation, B the taking-over executor's
	// (killed after one save unless it completed the run), Survivor
	// b's final run.
	A, B, Survivor *Result
	// BCompleted reports that b finished the run before its kill point.
	BCompleted bool
	// PoliteErr is what a polite b (no takeover) met while a's lease
	// was live; nil when not asked for.
	PoliteErr error
	// Zombie is a's error on re-entering its stale stack: it wraps
	// store.ErrFenced, or is nil when the zombie had no writes left and
	// completed with the reference journal.
	Zombie error
	// Identical reports that the survivor's journal equals ref.
	Identical bool
}

// FencingDrill is the two-executor fencing drill on fresh backends of
// spec, whose layout must carry a Lease. Executor a (holder "a") runs
// spec to its kill point; when polite, a b without takeover must then
// be held off; b (holder "b") takes the run over with a higher epoch
// and is killed after one save; the zombie a re-enters on its own
// stale stack and must be fenced on its first write or, when b already
// finished, complete write-free with ref; a fresh b finishes the run.
// The survivor's journal is compared with ref, the journal of an
// uncontended run.
func FencingDrill(plan Plan, spec RunSpec, ref Journal, polite bool) (*FencingReport, error) {
	if spec.Store == nil || spec.Store.Lease == nil {
		return nil, fmt.Errorf("%w: the run spec declares no lease", ErrDrill)
	}
	b, err := spec.Open()
	if err != nil {
		return nil, err
	}
	// as is spec run by holder, killed after crashSaves saves.
	as := func(holder string, takeover bool, crashSaves int) RunSpec {
		s := spec
		layout, lease := *spec.Store, *spec.Store.Lease
		lease.Holder, lease.Takeover = holder, takeover
		layout.Lease, s.Store = &lease, &layout
		s.CrashAfterEvents, s.CrashAfterSaves = 0, crashSaves
		return s
	}
	rep := &FencingReport{}
	a := as("a", spec.Store.Lease.Takeover, 0)
	aStack, err := a.Start(b)
	if err != nil {
		return nil, err
	}
	killed := a
	killed.CrashAfterEvents, killed.CrashAfterSaves = spec.CrashAfterEvents, spec.CrashAfterSaves
	if rep.A, err = killed.Execute(plan, aStack); !errors.Is(err, ErrCrashed) {
		return nil, fmt.Errorf("%w: executor a finished before its kill point (%v): set it below the run's %d events", ErrDrill, err, len(ref))
	}
	if polite {
		_, rep.PoliteErr = as("b", false, 0).RunOn(plan, b)
	}
	rep.B, err = as("b", true, 1).RunOn(plan, b)
	switch {
	case err == nil:
		rep.BCompleted = true
	case !errors.Is(err, ErrCrashed):
		return nil, fmt.Errorf("executor b: %w", err)
	}
	zombie, zErr := a.Execute(plan, aStack)
	switch {
	case errors.Is(zErr, store.ErrFenced):
		rep.Zombie = zErr
	case zErr == nil && zombie.Journal.Equal(ref):
	case zErr == nil:
		return nil, fmt.Errorf("%w: zombie a completed UNFENCED with a diverged journal (hash %016x, reference %016x)",
			ErrDrill, zombie.Journal.Hash(), ref.Hash())
	default:
		return nil, fmt.Errorf("zombie a: %w", zErr)
	}
	if rep.Survivor, err = as("b", true, 0).RunOn(plan, b); err != nil {
		return nil, fmt.Errorf("survivor: %w", err)
	}
	rep.Identical = rep.Survivor.Journal.Equal(ref)
	return rep, nil
}
