package dag

import (
	"fmt"

	"repro/internal/rng"
)

// WeightSpec controls randomized task parameters for the generators.
type WeightSpec struct {
	// MinWeight and MaxWeight bound the uniform task weights.
	MinWeight, MaxWeight float64
	// MinCheckpoint and MaxCheckpoint bound the uniform checkpoint costs.
	MinCheckpoint, MaxCheckpoint float64
	// RecoveryFactor scales each task's recovery cost from its checkpoint
	// cost (R_i = RecoveryFactor · C_i); 1 matches the paper's common
	// C = R assumption.
	RecoveryFactor float64
}

// DefaultWeights returns the weight specification used by the experiment
// suite: task weights in [1, 10] hours, checkpoint costs in [0.05, 0.5]
// hours, and R_i = C_i.
func DefaultWeights() WeightSpec {
	return WeightSpec{
		MinWeight: 1, MaxWeight: 10,
		MinCheckpoint: 0.05, MaxCheckpoint: 0.5,
		RecoveryFactor: 1,
	}
}

func (ws WeightSpec) validate() error {
	if ws.MinWeight < 0 || ws.MaxWeight < ws.MinWeight {
		return fmt.Errorf("dag: invalid weight range [%v, %v]", ws.MinWeight, ws.MaxWeight)
	}
	if ws.MinCheckpoint < 0 || ws.MaxCheckpoint < ws.MinCheckpoint {
		return fmt.Errorf("dag: invalid checkpoint range [%v, %v]", ws.MinCheckpoint, ws.MaxCheckpoint)
	}
	if ws.RecoveryFactor < 0 {
		return fmt.Errorf("dag: negative recovery factor %v", ws.RecoveryFactor)
	}
	return nil
}

// sample draws a task's parameters; name is the prefix add completes.
func (ws WeightSpec) sample(r *rng.Stream, name string) Task {
	w := ws.MinWeight
	if ws.MaxWeight > ws.MinWeight {
		w = r.Range(ws.MinWeight, ws.MaxWeight)
	}
	c := ws.MinCheckpoint
	if ws.MaxCheckpoint > ws.MinCheckpoint {
		c = r.Range(ws.MinCheckpoint, ws.MaxCheckpoint)
	}
	return Task{Name: name, Weight: w, Checkpoint: c, Recovery: ws.RecoveryFactor * c}
}

// Chain generates a linear chain T1 → … → Tn with randomized parameters —
// the application class of Proposition 3 (and of the scientific pipelines
// cited in Section 2).
func Chain(n int, ws WeightSpec, r *rng.Stream) (*Graph, error) {
	if n <= 0 {
		return nil, fmt.Errorf("dag: chain length must be positive, got %d", n)
	}
	if err := ws.validate(); err != nil {
		return nil, err
	}
	g, err := sized(n, n-1, n*labelLen("T", n))
	if err != nil {
		return nil, err
	}
	for i := 0; i < n; i++ {
		g.add(ws.sample(r, "T"), i+1)
		if i > 0 {
			g.link(i-1, i)
		}
	}
	return g, nil
}

// Independent generates n tasks with no dependences — the instance class
// of the NP-completeness proof (Proposition 2).
func Independent(n int, ws WeightSpec, r *rng.Stream) (*Graph, error) {
	if n <= 0 {
		return nil, fmt.Errorf("dag: task count must be positive, got %d", n)
	}
	if err := ws.validate(); err != nil {
		return nil, err
	}
	g, err := sized(n, 0, n*labelLen("T", n))
	if err != nil {
		return nil, err
	}
	for i := 0; i < n; i++ {
		g.add(ws.sample(r, "T"), i+1)
	}
	return g, nil
}

// IndependentWithWeights generates independent tasks with the exact given
// weights and homogeneous costs — the shape produced by the 3-PARTITION
// reduction.
func IndependentWithWeights(weights []float64, checkpoint, recovery float64) (*Graph, error) {
	if len(weights) == 0 {
		return nil, fmt.Errorf("dag: empty weight list")
	}
	n := len(weights)
	g, err := sized(n, 0, n*labelLen("T", n))
	if err != nil {
		return nil, err
	}
	for _, w := range weights {
		if _, err := g.AddTask(Task{Weight: w, Checkpoint: checkpoint, Recovery: recovery}); err != nil {
			return nil, err
		}
	}
	return g, nil
}

// ForkJoin generates a fork–join graph: a source task, `width` parallel
// branches of `depth` tasks each, and a sink task.
func ForkJoin(width, depth int, ws WeightSpec, r *rng.Stream) (*Graph, error) {
	if width <= 0 || depth <= 0 {
		return nil, fmt.Errorf("dag: fork-join width and depth must be positive, got %d × %d", width, depth)
	}
	if err := ws.validate(); err != nil {
		return nil, err
	}
	tasks := width*depth + 2
	g, err := sized(tasks, width*(depth+1), tasks*labelLen("b", width, depth)) // ≥ len("fork")
	if err != nil {
		return nil, err
	}
	src := g.add(ws.sample(r, "fork"))
	lasts := make([]int, 0, width)
	for b := 0; b < width; b++ {
		prev := src
		for d := 0; d < depth; d++ {
			id := g.add(ws.sample(r, "b"), b+1, d+1)
			g.link(prev, id)
			prev = id
		}
		lasts = append(lasts, prev)
	}
	sink := g.add(ws.sample(r, "join"))
	for _, l := range lasts {
		g.link(l, sink)
	}
	return g, nil
}

// Layered generates a layered random DAG: `layers` layers of `width` tasks
// each; every task in layer l+1 depends on each task of layer l
// independently with probability density (at least one predecessor is
// enforced so the layering is real).
func Layered(layers, width int, density float64, ws WeightSpec, r *rng.Stream) (*Graph, error) {
	if layers <= 0 || width <= 0 {
		return nil, fmt.Errorf("dag: layers and width must be positive, got %d × %d", layers, width)
	}
	if density < 0 || density > 1 {
		return nil, fmt.Errorf("dag: density must be in [0, 1], got %v", density)
	}
	if err := ws.validate(); err != nil {
		return nil, err
	}
	// Reserve the expected edge count: each of the later layers' tasks
	// draws about density·width predecessors, and at least one.
	tasks := layers * width
	edges := int(float64((layers-1)*width) * max(density*float64(width), 1))
	g, err := sized(tasks, edges, tasks*labelLen("L", layers, width))
	if err != nil {
		return nil, err
	}
	for l := 0; l < layers; l++ {
		for k := 0; k < width; k++ {
			id := g.add(ws.sample(r, "L"), l+1, k+1)
			if l > 0 {
				// The previous layer is the width IDs just below this
				// layer's first.
				first := id - k - width
				linked := false
				for p := first; p < first+width; p++ {
					if r.Float64() < density {
						if err := g.tryLink(p, id); err != nil {
							return nil, err
						}
						linked = true
					}
				}
				if !linked {
					if err := g.tryLink(first+r.IntN(width), id); err != nil {
						return nil, err
					}
				}
			}
		}
	}
	return g, nil
}

// MontageLike generates a synthetic workflow shaped like the Montage
// astronomy pipeline that motivates workflow checkpointing studies: a wide
// projection stage, a pairwise-overlap stage, a fan-in fitting stage, then
// a short tail chain (background correction, co-addition, output).
func MontageLike(tiles int, ws WeightSpec, r *rng.Stream) (*Graph, error) {
	if tiles < 2 {
		return nil, fmt.Errorf("dag: montage needs at least 2 tiles, got %d", tiles)
	}
	if err := ws.validate(); err != nil {
		return nil, err
	}
	// Tasks 0..tiles−1 project, tiles..2·tiles−2 diff neighbouring
	// projections, and four tail tasks follow.
	tasks := 2*tiles + 3
	g, err := sized(tasks, 3*tiles, tasks*max(labelLen("mProject", tiles), len("mConcatFit")))
	if err != nil {
		return nil, err
	}
	for i := 0; i < tiles; i++ {
		g.add(ws.sample(r, "mProject"), i+1)
	}
	for i := 0; i+1 < tiles; i++ {
		d := g.add(ws.sample(r, "mDiff"), i+1)
		g.link(i, d)
		g.link(i+1, d)
	}
	fit := g.add(ws.sample(r, "mConcatFit"))
	for d := tiles; d < fit; d++ {
		g.link(d, fit)
	}
	bg := g.add(ws.sample(r, "mBgModel"))
	g.link(fit, bg)
	coadd := g.add(ws.sample(r, "mAdd"))
	g.link(bg, coadd)
	out := g.add(ws.sample(r, "mJPEG"))
	g.link(coadd, out)
	return g, nil
}
