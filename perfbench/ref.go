package main

import (
	"hash/crc32"
	"math"
	"time"
)

// A reference kernel is fixed benchmark-owned work, timed right before
// and right after every op. The hosts this benchmark runs on drift in
// speed by up to half again over seconds to minutes, and the drift hits
// floating-point work and memory traffic differently; an op time divided
// by the time of a kernel bound by the same resource cancels the drift,
// while a change to the program moves only the op.
type refKernel func() float64

var refSink float64

// newFPKernel draws Weibull-shaped variates from a xorshift stream: the
// transcendental-heavy mix of the chain DP's cost tables and of the
// Monte-Carlo campaigns.
func newFPKernel() refKernel {
	return func() float64 {
		start := time.Now()
		x, acc := uint64(88172645463325252), 0.0
		for i := 0; i < 400_000; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			u := float64(x>>11) / (1 << 53)
			acc += math.Pow(-math.Log(u+1e-300), 1/0.7) + math.Exp(-3*u)
		}
		refSink += acc
		return time.Since(start).Seconds()
	}
}

// newMemKernel copies and checksums 32 MiB twice: the bulk copying and
// CRC work of checkpoint saves, loads and scrubs.
func newMemKernel() refKernel {
	src, dst := make([]byte, 32<<20), make([]byte, 32<<20)
	return func() float64 {
		start := time.Now()
		for i := 0; i < 2; i++ {
			copy(dst, src)
			src[i] = byte(crc32.ChecksumIEEE(dst))
		}
		return time.Since(start).Seconds()
	}
}
