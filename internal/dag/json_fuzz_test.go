package dag

import (
	"bytes"
	"testing"
)

// FuzzReadWorkflow pins the workflow decoder's contract on arbitrary
// bytes: it never panics, and any graph it accepts writes back to a file
// that decodes to the same graph.
func FuzzReadWorkflow(f *testing.F) {
	for _, s := range []string{
		`{"name":"diamond","tasks":[{"name":"a","weight":1,"checkpoint":0.5,"recovery":0.25},` +
			`{"name":"b","weight":2,"checkpoint":0.5,"recovery":0.25},{"name":"c","weight":3,"checkpoint":0.5,"recovery":0.25},` +
			`{"name":"d","weight":4,"checkpoint":0.5,"recovery":0.25}],"edges":[[0,1],[0,2],[1,3],[2,3]]}`,
		`{"tasks":[{"weight":1},{"weight":1}],"edges":[[0,1],[1,0]]}`, // cycle
		`{"tasks":[{"weight":1}],"edges":[[0,3]]}`,                    // out-of-range edge
		`{"tasks":[{"weight":-1}]}`,
		`{"tasks":[]}`,
		`{nonsense`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := Read(bytes.NewReader(data))
		if err != nil {
			return
		}
		want, err := g.MarshalJSON()
		if err != nil {
			t.Fatalf("accepted graph does not marshal: %v", err)
		}
		var buf bytes.Buffer
		if err := g.Write(&buf); err != nil {
			t.Fatalf("accepted graph does not write: %v", err)
		}
		back, err := Read(&buf)
		if err != nil {
			t.Fatalf("written graph does not read back: %v\n%s", err, buf.Bytes())
		}
		got, err := back.MarshalJSON()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("round trip changed the graph:\n got %s\nwant %s", got, want)
		}
	})
}
