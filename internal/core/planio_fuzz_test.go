package core

import (
	"bytes"
	"testing"
)

// FuzzReadPlan pins the plan decoder's contract on arbitrary bytes: it
// never panics, and any plan it accepts writes back to a file that
// decodes to the same plan.
func FuzzReadPlan(f *testing.F) {
	for _, s := range []string{
		`{"order":[2,0,1,3],"checkpoints":[1,3]}`,
		`{"order":[],"checkpoints":[]}`,
		`{"order":[0,1],"checkpoints":[5]}`,
		`{"order":[0,1],"checkpoints":[-1]}`,
		`{"order":[0,0],"checkpoints":[1]}`,
		`{nonsense`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := ReadPlan(bytes.NewReader(data))
		if err != nil {
			return
		}
		want, err := p.MarshalJSON()
		if err != nil {
			t.Fatalf("accepted plan does not marshal: %v", err)
		}
		var buf bytes.Buffer
		if err := WritePlan(&buf, p); err != nil {
			t.Fatalf("accepted plan does not write: %v", err)
		}
		back, err := ReadPlan(&buf)
		if err != nil {
			t.Fatalf("written plan does not read back: %v\n%s", err, buf.Bytes())
		}
		got, err := back.MarshalJSON()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("round trip changed the plan:\n got %s\nwant %s", got, want)
		}
	})
}
