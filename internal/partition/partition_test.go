package partition

import (
	"testing"

	"repro/internal/rng"
)

func TestValidate(t *testing.T) {
	good := Instance{Items: []int{20, 20, 20}, Target: 60}
	if err := good.Validate(); err != nil {
		t.Errorf("valid instance rejected: %v", err)
	}
	cases := []Instance{
		{Items: []int{1, 2}, Target: 3},                    // not multiple of 3
		{Items: []int{20, 20, 20}, Target: 0},              // bad target
		{Items: []int{10, 25, 25}, Target: 60},             // 10 ≤ T/4
		{Items: []int{30, 15, 15}, Target: 60},             // 30 ≥ T/2
		{Items: []int{20, 20, 21}, Target: 60},             // wrong sum
		{Items: nil, Target: 10},                           // empty
		{Items: []int{16, 20, 25, 20, 20, 20}, Target: 60}, // sum 61+60
	}
	for i, in := range cases {
		if err := in.Validate(); err == nil {
			t.Errorf("case %d should be invalid: %+v", i, in)
		}
	}
}

func TestSolveTrivialYes(t *testing.T) {
	in := Instance{Items: []int{20, 20, 20, 19, 20, 21}, Target: 60}
	sol, ok, err := Solve(in)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("instance is satisfiable")
	}
	if err := in.Check(sol); err != nil {
		t.Errorf("witness invalid: %v", err)
	}
}

func TestSolveNo(t *testing.T) {
	// Items sum to 2T but no triple hits T = 60 exactly:
	// {16,17,18,22,23,24}: triples must mix; 16+20... enumerate: the
	// exact solver decides.
	in := Instance{Items: []int{16, 17, 18, 22, 23, 24}, Target: 60}
	if err := in.Validate(); err != nil {
		t.Fatalf("instance should be well-formed: %v", err)
	}
	_, ok, err := Solve(in)
	if err != nil {
		t.Fatal(err)
	}
	// 16+20? No 20. Possible triples summing to 60: 16+20+24 no,
	// 16+21+23 no, 17+19+24 no, 16+22+22 no, 17+20+23 no, 18+19+23 no,
	// 16+23+21 no, 17+18+25 no, 18+20+22 no, 17+22+21 no, 18+24+18 no,
	// 16+24+20 no, 23+24+13 no... only {16,24,20},{17,23,20},{18,22,20},
	// {16,23,21},{17,22,21},{16,22,22},{17,24,19},{18,23,19},{24,18,18}:
	// none uses available values twice correctly. Expect unsatisfiable —
	// but trust the solver plus Check: if it says yes, verify.
	if ok {
		sol, _, _ := Solve(in)
		if err := in.Check(sol); err != nil {
			t.Errorf("solver returned invalid witness: %v", err)
		}
	}
}

func TestGenerateYes(t *testing.T) {
	r := rng.New(1)
	for n := 1; n <= 6; n++ {
		in, err := GenerateYes(n, 120, r)
		if err != nil {
			t.Fatal(err)
		}
		if err := in.Validate(); err != nil {
			t.Fatalf("generated instance invalid: %v", err)
		}
		sol, ok, err := Solve(in)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Fatalf("planted yes-instance unsolvable: %+v", in)
		}
		if err := in.Check(sol); err != nil {
			t.Errorf("witness invalid: %v", err)
		}
	}
}

func TestGenerateYesRoundsTarget(t *testing.T) {
	r := rng.New(2)
	in, err := GenerateYes(2, 100, r) // not divisible by 3 → rounded up
	if err != nil {
		t.Fatal(err)
	}
	if in.Target%3 != 0 {
		t.Errorf("target %d not rounded to a multiple of 3", in.Target)
	}
}

func TestGenerateNo(t *testing.T) {
	r := rng.New(3)
	in, err := GenerateNo(3, 120, r)
	if err != nil {
		t.Fatal(err)
	}
	if err := in.Validate(); err != nil {
		t.Fatalf("no-instance should still be well-formed: %v", err)
	}
	_, ok, err := Solve(in)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("GenerateNo returned a satisfiable instance")
	}
}

func TestCheckRejectsBadSolutions(t *testing.T) {
	in := Instance{Items: []int{20, 20, 20, 19, 20, 21}, Target: 60}
	bad := []Solution{
		{{0, 1, 2}},            // wrong group count
		{{0, 1}, {2, 3, 4}},    // group of 2
		{{0, 1, 2}, {0, 3, 4}}, // reuse
		{{0, 1, 3}, {2, 4, 5}}, // wrong sums
		{{0, 1, 9}, {2, 3, 4}}, // out of range
	}
	for i, sol := range bad {
		if err := in.Check(sol); err == nil {
			t.Errorf("bad solution %d accepted", i)
		}
	}
}

func TestSolveRejectsMalformed(t *testing.T) {
	if _, _, err := Solve(Instance{Items: []int{1, 2, 3}, Target: 6}); err == nil {
		t.Error("malformed instance should be rejected")
	}
}
