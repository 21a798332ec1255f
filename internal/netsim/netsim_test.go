package netsim

import (
	"sync"
	"testing"

	"repro/internal/attempt"
	"repro/internal/rng"
)

// Message names one delivery in logical terms, for tests that deliver
// by endpoint name.
type Message struct {
	Kind uint64
	Run  string
	Seq  uint64
}

// Deliver carries msg from one endpoint to another at virtual time now
// on run msg.Run's link.
func (n *Network) Deliver(now float64, from, to string, msg Message) Outcome {
	return n.Link(from, to, msg.Run).Deliver(now, msg.Kind, msg.Seq)
}

// TestDeliverDeterministic pins the core contract: the outcome of a
// logical delivery is a pure function of (seed, endpoints, message,
// attempt), independent of interleaving with other traffic and of
// instance restarts.
func TestDeliverDeterministic(t *testing.T) {
	cfg := Config{Seed: 42, Latency: 0.1, Jitter: 0.5, Loss: 0.2}
	msg := Message{Kind: 1, Run: "r", Seq: 7}

	solo := New(cfg)
	want := []Outcome{
		solo.Deliver(0, "a", "b", msg),
		solo.Deliver(0, "a", "b", msg),
		solo.Deliver(0, "a", "b", msg),
	}

	// Same deliveries with unrelated traffic interleaved.
	noisy := New(cfg)
	var got []Outcome
	for i := 0; i < 3; i++ {
		noisy.Deliver(0, "a", "c", Message{Kind: 2, Run: "other", Seq: uint64(i)})
		got = append(got, noisy.Deliver(0, "a", "b", msg))
		noisy.Deliver(0, "b", "a", Message{Kind: 1, Run: "r", Seq: 7}) // reverse direction is a distinct stream
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("attempt %d: solo %+v, interleaved %+v", i+1, want[i], got[i])
		}
	}

	// A fresh instance (process restart) re-deals the same outcomes.
	fresh := New(cfg)
	for i := range want {
		if out := fresh.Deliver(0, "a", "b", msg); out != want[i] {
			t.Fatalf("restart attempt %d: want %+v, got %+v", i+1, want[i], out)
		}
	}
}

// TestDeliverDirectionAndIdentity checks distinct streams per endpoint
// pair, kind, run and seq.
func TestDeliverDirectionAndIdentity(t *testing.T) {
	cfg := Config{Seed: 9, Jitter: 1}
	base := New(cfg).Deliver(0, "a", "b", Message{Kind: 1, Run: "r", Seq: 1})
	variants := []Outcome{
		New(cfg).Deliver(0, "b", "a", Message{Kind: 1, Run: "r", Seq: 1}),
		New(cfg).Deliver(0, "a", "b", Message{Kind: 2, Run: "r", Seq: 1}),
		New(cfg).Deliver(0, "a", "b", Message{Kind: 1, Run: "q", Seq: 1}),
		New(cfg).Deliver(0, "a", "b", Message{Kind: 1, Run: "r", Seq: 2}),
	}
	for i, v := range variants {
		if v.Latency == base.Latency {
			t.Errorf("variant %d drew the same jitter as the base delivery (%v); streams not distinct", i, v.Latency)
		}
	}
}

// TestPartitionWindows checks window coverage semantics: exactly one
// endpoint isolated, half-open interval, traffic within a side flows.
func TestPartitionWindows(t *testing.T) {
	n := New(Config{Seed: 1, Partitions: []Window{{Start: 10, End: 20, Isolated: []string{"s0"}}}})
	msg := Message{Kind: 1, Run: "r", Seq: 1}
	cases := []struct {
		now      float64
		from, to string
		want     bool
	}{
		{5, "exec", "s0", false},  // before the window
		{10, "exec", "s0", true},  // start is inclusive
		{15, "exec", "s0", true},  // inside
		{15, "s0", "exec", true},  // either direction
		{20, "exec", "s0", false}, // end is exclusive
		{15, "exec", "s1", false}, // both outside the isolated set
		{15, "s0", "s0", false},   // both inside the isolated set
	}
	for _, c := range cases {
		if got := n.Deliver(c.now, c.from, c.to, msg).Partitioned; got != c.want {
			t.Errorf("Deliver(now=%v, %s->%s): Partitioned=%v, want %v", c.now, c.from, c.to, got, c.want)
		}
	}
}

// TestPartitionDoesNotPerturbDraws pins that a window only flips the
// outcome flag: the latency stream is identical with and without the
// partition, so replaying past a healed window cannot shift later
// draws.
func TestPartitionDoesNotPerturbDraws(t *testing.T) {
	cfg := Config{Seed: 3, Latency: 0.2, Jitter: 0.7, Loss: 0.3}
	cut := cfg
	cut.Partitions = []Window{{Start: 0, End: 100, Isolated: []string{"b"}}}
	open, closed := New(cfg), New(cut)
	for i := 0; i < 50; i++ {
		msg := Message{Kind: 1, Run: "r", Seq: uint64(i)}
		a, b := open.Deliver(50, "a", "b", msg), closed.Deliver(50, "a", "b", msg)
		if a.Latency != b.Latency {
			t.Fatalf("seq %d: latency differs with partition: %v vs %v", i, a.Latency, b.Latency)
		}
		if !b.Partitioned {
			t.Fatalf("seq %d: expected partitioned outcome", i)
		}
	}
}

// TestLossRate sanity-checks the loss draw frequency and stats.
func TestLossRate(t *testing.T) {
	n := New(Config{Seed: 11, Loss: 0.25})
	const total = 4000
	for i := 0; i < total; i++ {
		n.Deliver(0, "a", "b", Message{Kind: 1, Run: "r", Seq: uint64(i)})
	}
	st := n.Stats()
	if st.Messages != total {
		t.Fatalf("Messages = %d, want %d", st.Messages, total)
	}
	rate := float64(st.Lost) / total
	if rate < 0.20 || rate > 0.30 {
		t.Fatalf("loss rate %.3f far from configured 0.25", rate)
	}
}

// TestConcurrentDeliveriesDeterministic hammers one network from many
// goroutines and checks each goroutine's own stream matches its solo
// replay — the -race-visible version of the interleaving contract.
func TestConcurrentDeliveriesDeterministic(t *testing.T) {
	cfg := Config{Seed: 77, Latency: 0.05, Jitter: 0.4, Loss: 0.1}
	const workers, ops = 8, 64

	want := make([][]Outcome, workers)
	for w := 0; w < workers; w++ {
		solo := New(cfg)
		for i := 0; i < ops; i++ {
			run := string(rune('A' + w))
			want[w] = append(want[w], solo.Deliver(0, "exec", "s0", Message{Kind: 1, Run: run, Seq: uint64(i % 8)}))
		}
	}

	shared := New(cfg)
	got := make([][]Outcome, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			run := string(rune('A' + w))
			for i := 0; i < ops; i++ {
				got[w] = append(got[w], shared.Deliver(0, "exec", "s0", Message{Kind: 1, Run: run, Seq: uint64(i % 8)}))
			}
		}(w)
	}
	wg.Wait()
	for w := 0; w < workers; w++ {
		for i := range want[w] {
			if want[w][i] != got[w][i] {
				t.Fatalf("worker %d op %d: solo %+v, shared %+v", w, i, want[w][i], got[w][i])
			}
		}
	}
}

// TestDeliverAllocs: a delivery rekeys the network's one stream and
// allocates nothing once its link's attempt table holds its seq.
func TestDeliverAllocs(t *testing.T) {
	n := New(Config{Seed: 3, Latency: 0.1, Jitter: 0.5, Loss: 0.2,
		Partitions: []Window{{Start: 5, End: 6, Isolated: []string{"s1"}}}})
	msg := Message{Kind: 1, Run: "run-7", Seq: 9}
	n.Deliver(0, "exec", "s1", msg)
	if got := testing.AllocsPerRun(100, func() { n.Deliver(0, "exec", "s1", msg) }); got != 0 {
		t.Errorf("Deliver: %v allocs/op, budget 0", got)
	}
}

// oracleKey is one logical delivery, the key the reference network
// counts attempts under.
type oracleKey struct {
	from, to, run string
	kind, seq     uint64
}

// oracleNetwork is the reference bookkeeping: one map entry per logical
// delivery and a freshly derived stream per draw. It ignores
// partitions, which never touch a draw.
type oracleNetwork struct {
	cfg      Config
	attempts map[oracleKey]uint64
}

// partitioned is the reference partition rule: some configured window
// is open at now and isolates exactly one of the two endpoints.
func (o *oracleNetwork) partitioned(now float64, from, to string) bool {
	for _, w := range o.cfg.Partitions {
		if now >= w.Start && now < w.End && w.isolates(from) != w.isolates(to) {
			return true
		}
	}
	return false
}

func (o *oracleNetwork) deliver(from, to string, msg Message) (Outcome, uint64) {
	k := oracleKey{from: from, to: to, run: msg.Run, kind: msg.Kind, seq: msg.Seq}
	o.attempts[k]++
	s := rng.Derive(o.cfg.Seed, rng.HashString(from), rng.HashString(to), msg.Kind, rng.HashString(msg.Run), msg.Seq, o.attempts[k])
	out := Outcome{Latency: o.cfg.Latency}
	if o.cfg.Jitter > 0 {
		out.Latency += s.ExpFloat64() * o.cfg.Jitter
	}
	out.Lost = o.cfg.Loss > 0 && s.Float64() < o.cfg.Loss
	return out, o.attempts[k]
}

// FuzzAttemptCounters: over any interleaving of links, runs, kinds and
// seqs — small seqs, seqs at and past attempt.DenseCap, 2⁶⁴−1 — the
// network's per-link attempt tables count exactly what one map entry
// per logical delivery counts, and every delivery draws what a freshly
// derived stream draws.
func FuzzAttemptCounters(f *testing.F) {
	f.Add(uint64(1), []byte{0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x15, 0x02, 0x0b})
	f.Add(uint64(7), []byte{0x21, 0x05, 0x0c, 0x21, 0x05, 0x0c, 0xf1, 0x02, 0x0f, 0x94, 0x03, 0x0d})
	endpoints := []string{"exec", "s0", "s1", "s2"}
	runs := []string{"r", "run-1", "run-1~lease", "x"}
	kinds := []uint64{0, 1, 2, 3, 4, 7, 8, 1<<64 - 1}
	seqs := []uint64{0, 1, 2, 3, 9, 100, 4096, attempt.DenseCap - 2, attempt.DenseCap - 1,
		attempt.DenseCap, attempt.DenseCap + 1, 1 << 32, 1 << 63, 1<<64 - 2, 1<<64 - 1, 5}
	f.Fuzz(func(t *testing.T, seed uint64, ops []byte) {
		cfg := Config{Seed: seed, Latency: 0.1, Jitter: 0.5, Loss: 0.3,
			Partitions: []Window{{Start: 1, End: 2, Isolated: []string{"s1"}}}}
		n := New(cfg)
		o := &oracleNetwork{cfg: cfg, attempts: map[oracleKey]uint64{}}
		for i := 0; i+3 <= len(ops); i += 3 {
			b0, b1, b2 := ops[i], ops[i+1], ops[i+2]
			from, to := endpoints[b0&3], endpoints[b0>>2&3]
			msg := Message{Kind: kinds[b0>>4&7], Run: runs[b1&3], Seq: seqs[b2&15] + uint64(b2>>4)}
			now := float64(b1>>2) / 16
			want, nth := o.deliver(from, to, msg)
			got := n.Deliver(now, from, to, msg)
			if o.partitioned(now, from, to) {
				want.Partitioned, want.Lost = true, false
			}
			if got != want {
				t.Fatalf("op %d (%s→%s %+v, attempt %d): %+v, reference %+v", i/3, from, to, msg, nth, got, want)
			}
		}
	})
}
