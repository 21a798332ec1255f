package trace

import (
	"bytes"
	"testing"
)

// FuzzReadCSV pins the trace decoder's contract on arbitrary bytes: it
// never panics, and any trace it accepts writes back to a file that
// decodes to the same trace.
func FuzzReadCSV(f *testing.F) {
	for _, s := range []string{
		"# nodes=2 events=3\n2,0\n5,1\n6,0\n",
		"",
		"abc,0\n",
		"1.5\n",
		"1.5,x\n",
		"-1,0\n",
		"# nodes=1\n0.5,0\n1,5\n2,7\n",
		"5,0\n1,1\n3,0\n",
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := ReadCSV(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := tr.WriteCSV(&buf); err != nil {
			t.Fatalf("accepted trace does not write: %v", err)
		}
		back, err := ReadCSV(&buf)
		if err != nil {
			t.Fatalf("written trace does not read back: %v\n%s", err, buf.Bytes())
		}
		if back.Nodes != tr.Nodes || len(back.Events) != len(tr.Events) {
			t.Fatalf("round trip changed the trace: %d nodes, %d events, want %d and %d",
				back.Nodes, len(back.Events), tr.Nodes, len(tr.Events))
		}
		for i, e := range tr.Events {
			if back.Events[i] != e {
				t.Fatalf("event %d: got %+v, want %+v", i, back.Events[i], e)
			}
		}
	})
}
