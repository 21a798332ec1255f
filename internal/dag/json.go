package dag

import (
	"encoding/json"
	"fmt"
	"io"
)

// fileFormat is the on-disk JSON representation of a workflow, consumed by
// cmd/chkptplan and cmd/chkptsim.
type fileFormat struct {
	Name  string     `json:"name,omitempty"`
	Tasks []fileTask `json:"tasks"`
	Edges [][2]int   `json:"edges,omitempty"`
}

type fileTask struct {
	Name       string  `json:"name,omitempty"`
	Weight     float64 `json:"weight"`
	Checkpoint float64 `json:"checkpoint"`
	Recovery   float64 `json:"recovery"`
}

// MarshalJSON encodes the graph in the workflow file format.
func (g *Graph) MarshalJSON() ([]byte, error) {
	ff := fileFormat{Tasks: make([]fileTask, g.Len())}
	if g.edges > 0 {
		ff.Edges = make([][2]int, 0, g.edges)
	}
	for v := range ff.Tasks {
		t := g.Task(v)
		ff.Tasks[v] = fileTask{Name: t.Name, Weight: t.Weight, Checkpoint: t.Checkpoint, Recovery: t.Recovery}
		for _, s := range g.Successors(v) {
			ff.Edges = append(ff.Edges, [2]int{v, s})
		}
	}
	return json.Marshal(ff)
}

// UnmarshalJSON decodes the workflow file format, validating structure.
func (g *Graph) UnmarshalJSON(data []byte) error {
	var ff fileFormat
	if err := json.Unmarshal(data, &ff); err != nil {
		return fmt.Errorf("dag: decode workflow: %w", err)
	}
	nameBytes, defaultLen := 0, labelLen("T", len(ff.Tasks))
	for _, ft := range ff.Tasks {
		nameBytes += max(len(ft.Name), defaultLen)
	}
	fresh, err := sized(len(ff.Tasks), len(ff.Edges), nameBytes)
	if err != nil {
		return err
	}
	for _, ft := range ff.Tasks {
		if _, err := fresh.AddTask(Task{
			Name: ft.Name, Weight: ft.Weight, Checkpoint: ft.Checkpoint, Recovery: ft.Recovery,
		}); err != nil {
			return err
		}
	}
	for _, e := range ff.Edges {
		if err := fresh.AddEdge(e[0], e[1]); err != nil {
			return err
		}
	}
	if err := fresh.Validate(); err != nil {
		return err
	}
	*g = *fresh
	return nil
}

// Read decodes a workflow from r.
func Read(r io.Reader) (*Graph, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("dag: read workflow: %w", err)
	}
	g := New()
	if err := g.UnmarshalJSON(data); err != nil {
		return nil, err
	}
	return g, nil
}

// Write encodes the workflow to w with indentation.
func (g *Graph) Write(w io.Writer) error {
	data, err := g.MarshalJSON()
	if err != nil {
		return err
	}
	var buf []byte
	{
		var tmp map[string]any
		if err := json.Unmarshal(data, &tmp); err != nil {
			return err
		}
		buf, err = json.MarshalIndent(tmp, "", "  ")
		if err != nil {
			return err
		}
	}
	buf = append(buf, '\n')
	_, err = w.Write(buf)
	return err
}
