// Package attempt counts attempt ordinals for the runtime's keyed
// draws. store.FaultStore and netsim.Network key every draw by a
// logical operation — an op kind, a run and a sequence number — and by
// how many times that operation has been issued to the instance; a
// Counter holds those counts for one resolved run (or one run on one
// network link), so an operation costs one lookup of its run and an
// index into a table, not a map entry keyed by its whole identity.
package attempt

// DenseCap bounds the dense tables: an operation whose seq is below
// DenseCap, of a kind below denseKinds, is counted in its kind's table
// at index seq. Checkpoint seqs are small dense integers, so a table
// grows only to the run's highest seq; any other operation is counted
// in a map. Either way the count is the same.
const DenseCap = 1 << 16

// denseKinds covers every op kind the store and network layers issue.
const denseKinds = 8

// Counter counts the attempts of (kind, seq) operations under one
// resolved key. The zero Counter is empty and ready to use. It is not
// safe for concurrent use: its owner's lock guards it.
type Counter struct {
	dense [denseKinds][]uint64
	spill map[[2]uint64]uint64
}

// Next counts one more attempt of operation (kind, seq) and returns its
// ordinal: 1 for the first attempt.
func (c *Counter) Next(kind, seq uint64) uint64 {
	if kind < denseKinds && seq < DenseCap {
		t := c.dense[kind]
		if seq >= uint64(len(t)) {
			t = grow(t, int(seq))
			c.dense[kind] = t
		}
		t[seq]++
		return t[seq]
	}
	if c.spill == nil {
		c.spill = make(map[[2]uint64]uint64)
	}
	k := [2]uint64{kind, seq}
	c.spill[k]++
	return c.spill[k]
}

// grow returns t extended to hold index i: at least doubled, at most
// DenseCap long.
func grow(t []uint64, i int) []uint64 {
	n := min(max(2*len(t), i+1, 16), DenseCap)
	g := make([]uint64, n)
	copy(g, t)
	return g
}
