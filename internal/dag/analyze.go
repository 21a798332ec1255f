package dag

import (
	"fmt"

	"repro/internal/rng"
)

// Levels partitions the tasks into precedence levels: level 0 holds the
// sources, and each task sits one level above its deepest predecessor.
// Level widths bound the parallelism the full-parallelism assumption
// gives up — useful when sizing the moldable extension.
func (g *Graph) Levels() ([][]int, error) {
	order, err := g.TopologicalOrder()
	if err != nil {
		return nil, err
	}
	depth := make([]int, g.Len())
	maxDepth := 0
	for _, v := range order {
		for _, p := range g.pred.list(v) {
			if depth[p]+1 > depth[v] {
				depth[v] = depth[p] + 1
			}
		}
		if depth[v] > maxDepth {
			maxDepth = depth[v]
		}
	}
	levels := make([][]int, maxDepth+1)
	for v, d := range depth {
		levels[d] = append(levels[d], v)
	}
	return levels, nil
}

// Stats summarizes a workflow's shape for experiment tables.
type Stats struct {
	// Tasks and Edges count the graph elements.
	Tasks, Edges int
	// Depth is the number of precedence levels.
	Depth int
	// MaxWidth is the size of the largest level.
	MaxWidth int
	// TotalWeight is Σ w_i; CriticalPathWeight the longest path weight.
	TotalWeight, CriticalPathWeight float64
	// SequentialFraction is CriticalPathWeight / TotalWeight: 1 for a
	// chain, → 0 for wide graphs.
	SequentialFraction float64
	// MeanCheckpointCost averages C_i over tasks.
	MeanCheckpointCost float64
}

// Analyze computes Stats.
func (g *Graph) Analyze() (Stats, error) {
	levels, err := g.Levels()
	if err != nil {
		return Stats{}, err
	}
	cpw, _, err := g.CriticalPath()
	if err != nil {
		return Stats{}, err
	}
	s := Stats{
		Tasks:              g.Len(),
		Edges:              g.EdgeCount(),
		Depth:              len(levels),
		TotalWeight:        g.TotalWeight(),
		CriticalPathWeight: cpw,
	}
	for _, lv := range levels {
		if len(lv) > s.MaxWidth {
			s.MaxWidth = len(lv)
		}
	}
	if s.TotalWeight > 0 {
		s.SequentialFraction = cpw / s.TotalWeight
	}
	var sumC float64
	for _, c := range g.ckpt {
		sumC += c
	}
	if g.Len() > 0 {
		s.MeanCheckpointCost = sumC / float64(g.Len())
	}
	return s, nil
}

// String renders the stats on one line.
func (s Stats) String() string {
	return fmt.Sprintf("tasks=%d edges=%d depth=%d width=%d work=%.4g cp=%.4g seq=%.2f",
		s.Tasks, s.Edges, s.Depth, s.MaxWidth, s.TotalWeight, s.CriticalPathWeight, s.SequentialFraction)
}

// GNP generates a random DAG in the Erdős–Rényi style: tasks 0..n−1 with
// each forward edge (i, j), i < j, present independently with probability
// p. Classic random-workflow baseline for scheduling studies.
func GNP(n int, p float64, ws WeightSpec, r *rng.Stream) (*Graph, error) {
	if n <= 0 {
		return nil, fmt.Errorf("dag: task count must be positive, got %d", n)
	}
	if p < 0 || p > 1 {
		return nil, fmt.Errorf("dag: edge probability must be in [0, 1], got %v", p)
	}
	if err := ws.validate(); err != nil {
		return nil, err
	}
	g, err := sized(n, int(p*float64(n)*float64(n-1)/2), n*labelLen("T", n))
	if err != nil {
		return nil, err
	}
	for i := 0; i < n; i++ {
		g.add(ws.sample(r, "T"), i+1)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if r.Float64() < p {
				if err := g.tryLink(i, j); err != nil {
					return nil, err
				}
			}
		}
	}
	return g, nil
}

// IntreeFromChains builds an in-tree: `branches` chains of length `depth`
// merging into a single root task — the reduction-tree shape of
// map-reduce style workflows.
func IntreeFromChains(branches, depth int, ws WeightSpec, r *rng.Stream) (*Graph, error) {
	if branches <= 0 || depth <= 0 {
		return nil, fmt.Errorf("dag: branches and depth must be positive, got %d × %d", branches, depth)
	}
	if err := ws.validate(); err != nil {
		return nil, err
	}
	tasks := branches*depth + 1
	g, err := sized(tasks, branches*depth, tasks*labelLen("c", branches, depth)) // ≥ len("root")
	if err != nil {
		return nil, err
	}
	for b := 0; b < branches; b++ {
		for d := 0; d < depth; d++ {
			id := g.add(ws.sample(r, "c"), b+1, d+1)
			if d > 0 {
				g.link(id-1, id)
			}
		}
	}
	root := g.add(ws.sample(r, "root"))
	for b := 1; b <= branches; b++ {
		g.link(b*depth-1, root) // branch b's tail
	}
	return g, nil
}
