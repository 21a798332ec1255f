package exec

import (
	"math"
	"strings"
	"testing"
)

// TestParseRetryPolicy pins the -retry-policy grammar: each accepted
// spelling resolves to its policy value, and every malformed, non-finite,
// overflowing or over-long spelling is a "bad retry policy" error (an
// unknown scheme an "unknown retry policy" one).
func TestParseRetryPolicy(t *testing.T) {
	for spelling, want := range map[string]RetryPolicy{
		"":              NoRetry{},
		"none":          NoRetry{},
		"fixed:3":       FixedRetry{Attempts: 3},
		"exp":           ExpBackoff{Base: 0.5},
		"exp:1":         ExpBackoff{Base: 1},
		"exp:0.5:2:4:3": ExpBackoff{Base: 0.5, Factor: 2, Cap: 4, MaxAttempts: 3},
		"exp:0:3":       ExpBackoff{Factor: 3},
		"exp:1e300:10":  ExpBackoff{Base: 1e300, Factor: 10},
	} {
		got, err := ParseRetryPolicy(spelling)
		if err != nil || got != want {
			t.Errorf("ParseRetryPolicy(%q) = %#v, %v; want %#v", spelling, got, err, want)
		}
	}
	for _, bad := range []string{
		"fixed:0", "fixed:x", "fixed:-2",
		"exp:", "exp:-1", "exp:1:2:3:0", "exp:1:2:3:x",
		"exp:NaN", "exp:Inf", "exp:+Inf", "exp:-Inf", "exp:0.5:NaN", "exp:0.5:2:Inf",
		"exp:0.5:2:4:5:7", "exp:1:2:3:4:",
		"exp:1e308:10", "exp:0:1e300", "exp:1:2:0:2000",
	} {
		if pol, err := ParseRetryPolicy(bad); err == nil || !strings.Contains(err.Error(), "bad retry policy") {
			t.Errorf("ParseRetryPolicy(%q) = %#v, %v; want a bad retry policy error", bad, pol, err)
		}
	}
	for _, unknown := range []string{"bogus", "fixed", "expo:1"} {
		if _, err := ParseRetryPolicy(unknown); err == nil || !strings.Contains(err.Error(), "unknown retry policy") {
			t.Errorf("ParseRetryPolicy(%q) = %v, want an unknown retry policy error", unknown, err)
		}
	}
}

// FuzzParseRetryPolicy pins the grammar's contract on arbitrary
// spellings: it never panics, and every accepted policy has finite,
// non-negative fields and a finite, non-negative delay for retries 1–16.
func FuzzParseRetryPolicy(f *testing.F) {
	for _, s := range []string{
		"", "none", "fixed:3", "exp", "exp:0.5:2:4:3", "exp:NaN", "exp:0.5:2:4:5:7",
		"exp:1e300:10", "exp:0:1e300", "exp:1:2:0:2000", "exp:1e-320:0.5",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, spelling string) {
		pol, err := ParseRetryPolicy(spelling)
		if err != nil {
			return
		}
		finite := func(v float64) bool { return v >= 0 && !math.IsInf(v, 1) }
		switch p := pol.(type) {
		case NoRetry:
		case FixedRetry:
			if p.Attempts <= 0 {
				t.Fatalf("%q: %d retries", spelling, p.Attempts)
			}
		case ExpBackoff:
			if !finite(p.Base) || !finite(p.Factor) || !finite(p.Cap) || p.MaxAttempts < 0 {
				t.Fatalf("%q: fields %#v", spelling, p)
			}
		default:
			t.Fatalf("%q: unexpected policy %#v", spelling, pol)
		}
		for attempt := 1; attempt <= 16; attempt++ {
			if d, _ := pol.Backoff(attempt); !finite(d) {
				t.Fatalf("%q: retry %d waits %v", spelling, attempt, d)
			}
		}
	})
}
