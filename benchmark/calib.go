package main

import (
	"io"
	"math"
	"net"
	"syscall"
	"time"
)

// Calibration rows measure the box, not the code: when a verdict is noisy
// they say whether the host moved.

// The reference kernel: a 160×160 float64 matrix product (4M multiply-adds
// over 600 KB, so it stays in the L2 cache) on the calling goroutine. It
// touches no code of the system under test, so when it moves, the box moved.
// Alone and warm it repeats within ±3 % on this box; larger or two-core
// variants were tried and were several times noisier (the box's two CPUs
// behave like two hardware threads of one core: two kernels at once each
// take twice as long).
const (
	refN    = 160
	refReps = 7
)

var (
	refMat  = initRefMat()
	refSink float64
)

func initRefMat() (m [3][refN * refN]float64) {
	for i := range m[0] {
		m[0][i] = float64(i%17) * 0.25
		m[1][i] = float64(i%13) * 0.5
	}
	return m
}

// hostRefMS is the median time, in milliseconds, of refReps runs of the
// reference kernel; the first runs, which find the core cold after an idle
// stretch, fall outside the median.
func hostRefMS() float64 {
	a, b, c := &refMat[0], &refMat[1], &refMat[2]
	times := make([]float64, refReps)
	for r := range times {
		t0 := time.Now()
		for i := 0; i < refN; i++ {
			row := c[i*refN : (i+1)*refN]
			clear(row)
			for k := 0; k < refN; k++ {
				aik := a[i*refN+k]
				for j, bv := range b[k*refN : (k+1)*refN] {
					row[j] += aik * bv
				}
			}
		}
		times[r] = time.Since(t0).Seconds() * 1e3
	}
	refSink += c[refN+1]
	return median(times)
}

// Host normalisation. On the shared box this was built on, CPU-bound code
// runs 15-25 % slower for tens of minutes at a time (a neighbour on the same
// core), which moved every CPU-bound figure by as much between two sets of
// runs of the same commit - more than any bound the benchmark may set. The
// reference kernel sees the same slowdown, so every gated time is divided,
// round by round, by
//
//	hostFactor = ((1 - cpuShare) + cpuShare * hostRefMS/refNominalMS) ^ refShrink
//
// where cpuShare is the part of the round the process was on a CPU (a round
// spent waiting on a timer is not slowed by a slow core). refShrink < 1
// because the reference reading is itself a noisy estimate of the slowdown: correcting by
// the full ratio adds more noise to the steady workloads than it removes
// from the unsteady ones (README: measured on four sets of fifty runs).
// Wall-clock readings are reported beside the normalised ones as raw.*.
const (
	// refNominalMS is hostRefMS on this class of box when it is quiet. It only
	// fixes the scale: figures are "as on a box where the kernel takes this".
	refNominalMS = 1.85
	refShrink    = 0.75
)

func hostFactor(refMS, cpuShare float64) float64 {
	return math.Pow((1-cpuShare)+cpuShare*refMS/refNominalMS, refShrink)
}

// processCPU is the CPU time (user + system, all threads) the process has
// used so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0 // cannot fail for RUSAGE_SELF with a valid pointer
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// timerOvershoot is how much later than asked a 200 µs sleep returns
// (median of 25). On this class of runner it is about a millisecond, which
// is why the micro-batcher's 200 µs MaxWait costs 1.1 ms and why no workload
// here paces arrivals open loop.
func timerOvershoot() time.Duration {
	const ask = 200 * time.Microsecond
	over := make([]float64, 25)
	for i := range over {
		t0 := time.Now()
		time.Sleep(ask)
		over[i] = float64(time.Since(t0) - ask)
	}
	return time.Duration(median(over))
}

// loopbackRTT is the median round trip of one byte over a loopback TCP
// connection to an echoing goroutine: the kernel's and the scheduler's share
// of every socket workload, with no HTTP in it.
func loopbackRTT() (time.Duration, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	done := make(chan struct{})
	go func() {
		defer close(done)
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		io.Copy(c, c) // echoes until the client closes
	}()
	c, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		return 0, err
	}
	const trips = 500
	rtts := make([]float64, 0, trips)
	var b [1]byte
	for i := 0; i < trips; i++ {
		t0 := time.Now()
		if _, err = c.Write(b[:]); err == nil {
			_, err = io.ReadFull(c, b[:])
		}
		if err != nil {
			break
		}
		rtts = append(rtts, float64(time.Since(t0)))
	}
	c.Close()
	<-done
	if err != nil {
		return 0, err
	}
	return time.Duration(median(rtts)), nil
}
