package main

import (
	"slices"
	"sync"
	"time"
)

// client is one closed-loop caller: it sends its next operation only after
// the previous one completed. prepare and check run outside the timed span,
// so choosing the next input, patching a body and verifying an answer never
// count as latency.
type client interface {
	prepare()
	do()
	check() bool
	close()
}

// maxSamples caps one client's per-round sample buffer (4 MB of uint32
// nanoseconds). With the merged copy the harness holds 16 MB at two clients.
// A round that outruns it keeps counting operations but stops sampling, and
// says so.
const maxSamples = 1 << 20

// roundStats is one measured round.
type roundStats struct {
	Ops        int     `json:"ops"`
	Failed     int     `json:"failed"`
	Seconds    float64 `json:"seconds"`
	Throughput float64 `json:"throughput_ops_s"`
	P50ms      float64 `json:"p50_ms"`
	P90ms      float64 `json:"p90_ms"`
	P99ms      float64 `json:"p99_ms"`
	MaxMS      float64 `json:"max_ms"`
	HostRefMS  float64 `json:"host_ref_ms"` // reference kernel just before the round
	CPUShare   float64 `json:"cpu_share"`   // process CPU time / wall time during the round, capped at 1
	HostFactor float64 `json:"host_factor"` // hostFactor(HostRefMS, CPUShare)
	Truncated  bool    `json:"truncated,omitempty"`
}

// loop drives a fixed set of clients through timed rounds.
type loop struct {
	clients []client
	bufs    [][]uint32
	merged  []uint32
	epoch   time.Time

	// spans holds one buffer per client in a traced run; a traced round
	// appends one client.op span per operation, up to the buffer's capacity.
	spans [][]span
}

func newLoop(clients []client) *loop {
	l := &loop{clients: clients, epoch: time.Now()}
	for range clients {
		l.bufs = append(l.bufs, make([]uint32, 0, maxSamples))
	}
	l.merged = make([]uint32, 0, maxSamples*len(clients))
	return l
}

// round runs every client for d and summarises exact per-operation samples.
// The reference kernel runs first, alone, so a slow round can be told from
// a slow box. A traced round also records client.op spans.
func (l *loop) round(d time.Duration, traced bool) roundStats {
	rs := roundStats{HostRefMS: hostRefMS()}
	cpu0 := processCPU()
	ops := make([]int, len(l.clients))
	failed := make([]int, len(l.clients))
	ends := make([]time.Time, len(l.clients))
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for ci, c := range l.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := l.bufs[ci][:0]
			var sp []span
			if traced {
				sp = l.spans[ci]
			}
			for {
				c.prepare()
				t0 := time.Now()
				c.do()
				t1 := time.Now()
				if !c.check() {
					failed[ci]++
				}
				ns := t1.Sub(t0)
				if len(buf) < cap(buf) {
					buf = append(buf, uint32(min(ns, 1<<32-1)))
				}
				if len(sp) < cap(sp) {
					sp = append(sp, span{
						Name: "client.op", Start: t0.Sub(l.epoch).Nanoseconds(), End: t1.Sub(l.epoch).Nanoseconds(),
						Parent: -1, Req: int32(ci<<24 | ops[ci]&(1<<24-1)),
					})
				}
				ops[ci]++
				if !t1.Before(deadline) {
					ends[ci] = t1
					break
				}
			}
			l.bufs[ci] = buf
			if traced {
				l.spans[ci] = sp
			}
		}()
	}
	wg.Wait()
	cpu := processCPU() - cpu0

	end := start
	l.merged = l.merged[:0]
	for ci := range l.clients {
		rs.Ops += ops[ci]
		rs.Failed += failed[ci]
		if ends[ci].After(end) {
			end = ends[ci]
		}
		l.merged = append(l.merged, l.bufs[ci]...)
	}
	rs.Truncated = len(l.merged) < rs.Ops
	rs.Seconds = end.Sub(start).Seconds()
	rs.CPUShare = min(1, cpu.Seconds()/rs.Seconds)
	rs.HostFactor = hostFactor(rs.HostRefMS, rs.CPUShare)
	rs.Throughput = float64(rs.Ops) / rs.Seconds
	slices.Sort(l.merged)
	ms := func(ns uint32) float64 { return float64(ns) / 1e6 }
	rs.P50ms = ms(percentile(l.merged, 0.50))
	rs.P90ms = ms(percentile(l.merged, 0.90))
	rs.P99ms = ms(percentile(l.merged, 0.99))
	rs.MaxMS = ms(l.merged[len(l.merged)-1])
	return rs
}

// overRounds returns the median of one per-round figure.
func overRounds(rounds []roundStats, f func(roundStats) float64) float64 {
	xs := make([]float64, len(rounds))
	for i, r := range rounds {
		xs[i] = f(r)
	}
	return median(xs)
}

// roundSpreadPct is (max-min)/median of per-round throughput: how much the
// rounds of one run disagree.
func roundSpreadPct(rounds []roundStats) float64 {
	lo, hi := rounds[0].Throughput, rounds[0].Throughput
	for _, r := range rounds[1:] {
		lo, hi = min(lo, r.Throughput), max(hi, r.Throughput)
	}
	return 100 * (hi - lo) / overRounds(rounds, func(r roundStats) float64 { return r.Throughput })
}
