// Package trace generates, stores and replays failure traces. It is the
// stand-in for the production failure logs (Failure Trace Archive) the
// paper cites for the general-law extension: synthetic traces drawn from
// Exponential, Weibull or log-normal laws in a simple CSV format, plus the
// estimators needed to fit laws back from observed traces.
package trace

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"

	"repro/internal/failure"
	"repro/internal/rng"
)

// Event is one failure record: the absolute time at which a node failed.
type Event struct {
	// Time is the absolute failure time.
	Time float64
	// Node identifies the failed processor.
	Node int
}

// Trace is a chronologically sorted list of failure events.
type Trace struct {
	// Events holds the failures sorted by time.
	Events []Event
	// Nodes is the number of processors the trace covers.
	Nodes int
}

// Generate draws a synthetic trace: each of nodes processors fails
// repeatedly with iid inter-failure times from dist, until horizon. The
// per-node renewal processes are superposed and sorted.
func Generate(dist failure.Distribution, nodes int, horizon float64, r *rng.Stream) (*Trace, error) {
	if nodes <= 0 {
		return nil, fmt.Errorf("trace: node count must be positive, got %d", nodes)
	}
	if !(horizon > 0) || math.IsInf(horizon, 1) {
		return nil, fmt.Errorf("trace: horizon must be positive and finite, got %v", horizon)
	}
	var events []Event
	for node := 0; node < nodes; node++ {
		t := 0.0
		for {
			t += dist.Sample(r)
			if t > horizon {
				break
			}
			events = append(events, Event{Time: t, Node: node})
		}
	}
	sort.Slice(events, func(i, j int) bool { return events[i].Time < events[j].Time })
	return &Trace{Events: events, Nodes: nodes}, nil
}

// PlatformGaps returns the platform-level inter-failure times: the
// differences between consecutive failure instants across all nodes (the
// sequence a fully-parallel application experiences).
func (t *Trace) PlatformGaps() []float64 {
	if len(t.Events) == 0 {
		return nil
	}
	gaps := make([]float64, 0, len(t.Events))
	prev := 0.0
	for _, e := range t.Events {
		gaps = append(gaps, e.Time-prev)
		prev = e.Time
	}
	return gaps
}

// MTBF returns the mean platform gap, or 0 for traces with no failure.
func (t *Trace) MTBF() float64 {
	gaps := t.PlatformGaps()
	if len(gaps) == 0 {
		return 0
	}
	var sum float64
	for _, g := range gaps {
		sum += g
	}
	return sum / float64(len(gaps))
}

// WriteCSV stores the trace as "time,node" lines with a header.
func (t *Trace) WriteCSV(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "# nodes=%d events=%d\n", t.Nodes, len(t.Events)); err != nil {
		return err
	}
	for _, e := range t.Events {
		if _, err := fmt.Fprintf(bw, "%s,%d\n", strconv.FormatFloat(e.Time, 'g', -1, 64), e.Node); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadCSV parses a trace written by WriteCSV (comments and blank lines are
// skipped; the nodes count is recovered from the header or from the data,
// and an event on a node at or above the header's count is an error).
func ReadCSV(r io.Reader) (*Trace, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 16*1024*1024)
	out := &Trace{}
	maxNode := -1
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		if strings.HasPrefix(text, "#") {
			if i := strings.Index(text, "nodes="); i >= 0 {
				rest := text[i+len("nodes="):]
				if j := strings.IndexFunc(rest, func(r rune) bool { return r < '0' || r > '9' }); j >= 0 {
					rest = rest[:j]
				}
				if n, err := strconv.Atoi(rest); err == nil {
					out.Nodes = n
				}
			}
			continue
		}
		parts := strings.Split(text, ",")
		if len(parts) != 2 {
			return nil, fmt.Errorf("trace: line %d: want \"time,node\", got %q", line, text)
		}
		tv, err := strconv.ParseFloat(strings.TrimSpace(parts[0]), 64)
		if err != nil {
			return nil, fmt.Errorf("trace: line %d: bad time: %w", line, err)
		}
		nv, err := strconv.Atoi(strings.TrimSpace(parts[1]))
		if err != nil {
			return nil, fmt.Errorf("trace: line %d: bad node: %w", line, err)
		}
		if math.IsNaN(tv) || math.IsInf(tv, 0) {
			return nil, fmt.Errorf("trace: line %d: non-finite time %v", line, tv)
		}
		if tv < 0 || nv < 0 {
			return nil, fmt.Errorf("trace: line %d: negative time or node", line)
		}
		out.Events = append(out.Events, Event{Time: tv, Node: nv})
		if nv > maxNode {
			maxNode = nv
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("trace: scan: %w", err)
	}
	if out.Nodes == 0 {
		out.Nodes = maxNode + 1
	}
	if maxNode >= out.Nodes {
		return nil, fmt.Errorf("trace: event on node %d, but the header declares nodes=%d", maxNode, out.Nodes)
	}
	if len(out.Events) == 0 {
		return nil, errors.New("trace: no events")
	}
	if !sort.SliceIsSorted(out.Events, func(i, j int) bool { return out.Events[i].Time < out.Events[j].Time }) {
		sort.Slice(out.Events, func(i, j int) bool { return out.Events[i].Time < out.Events[j].Time })
	}
	return out, nil
}

// Process adapts the trace to the simulator's failure.Process interface,
// replaying platform gaps cyclically.
func (t *Trace) Process() (failure.Process, error) {
	gaps := t.PlatformGaps()
	if len(gaps) == 0 {
		return nil, errors.New("trace: cannot replay a trace with no failures")
	}
	return failure.NewTraceProcess(gaps)
}

// FitSummary reports distribution fits of the platform gaps, used by the
// extension experiments to parameterize schedulers from "observed" logs.
type FitSummary struct {
	// MTBF is the empirical platform mean time between failures.
	MTBF float64
	// Exp is the maximum-likelihood Exponential fit.
	Exp failure.Exponential
	// Weib is the maximum-likelihood Weibull fit.
	Weib failure.Weibull
}

// Fit estimates the platform gap distribution.
func (t *Trace) Fit() (FitSummary, error) {
	gaps := t.PlatformGaps()
	e, err := failure.FitExponential(gaps)
	if err != nil {
		return FitSummary{}, err
	}
	w, err := failure.FitWeibull(gaps)
	if err != nil {
		return FitSummary{}, err
	}
	return FitSummary{MTBF: t.MTBF(), Exp: e, Weib: w}, nil
}
