package loadgen

import (
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"
)

// Schedule is an open-loop arrival plan: At(i) is the intended start time
// of the i-th request, as an offset from the run start. Implementations
// must be monotonically non-decreasing in i and safe for concurrent
// readers; the runner calls At once per arrival on the dispatch goroutine.
//
// The schedule is the whole point of open-loop generation: arrival times
// are a function of i alone, fixed before the run, so a slow server cannot
// slow the arrival process down (coordinated omission) — it can only make
// latencies, drops, and backpressure counts worse.
type Schedule interface {
	// At returns the intended start offset of request i (i >= 0).
	At(i int64) time.Duration
}

// Constant arrives at a fixed rate: At(i) = i/QPS.
type Constant struct {
	QPS float64
}

func (c Constant) At(i int64) time.Duration {
	return time.Duration(float64(i) / c.QPS * float64(time.Second))
}

// Ramp sweeps linearly from From to To QPS over Duration. Arrivals are the
// inverse of the cumulative rate N(t) = From·t + (To−From)·t²/(2·D): the
// i-th arrival solves N(t) = i in closed form, so the instantaneous rate
// really is linear in time rather than stepped.
type Ramp struct {
	From, To float64
	Duration time.Duration
}

func (r Ramp) At(i int64) time.Duration {
	d := r.Duration.Seconds()
	n := float64(i)
	slope := (r.To - r.From) / d
	if math.Abs(slope) < 1e-12 {
		return time.Duration(n / r.From * float64(time.Second))
	}
	// Solve slope/2·t² + From·t − n = 0 for the positive root.
	t := (-r.From + math.Sqrt(r.From*r.From+2*slope*n)) / slope
	return time.Duration(t * float64(time.Second))
}

// Sine modulates the rate around Base with amplitude Amp and the given
// Period: qps(t) = Base + Amp·sin(2πt/Period) — the diurnal-load shape.
// The cumulative arrival count N(t) = Base·t + Amp·P/2π·(1−cos(2πt/P)) has
// no closed-form inverse; At solves it with a few Newton steps seeded at
// the constant-rate guess (N is strictly increasing while Amp < Base, so
// the iteration is well-behaved).
type Sine struct {
	Base, Amp float64
	Period    time.Duration
}

func (s Sine) At(i int64) time.Duration {
	p := s.Period.Seconds()
	w := 2 * math.Pi / p
	n := float64(i)
	cum := func(t float64) float64 { return s.Base*t + s.Amp/w*(1-math.Cos(w*t)) }
	rate := func(t float64) float64 { return s.Base + s.Amp*math.Sin(w*t) }
	t := n / s.Base // constant-rate seed
	for iter := 0; iter < 8; iter++ {
		f := cum(t) - n
		r := rate(t)
		if r < s.Base*1e-3 {
			r = s.Base * 1e-3 // never divide by a vanishing rate
		}
		step := f / r
		t -= step
		if t < 0 {
			t = 0
		}
		if math.Abs(step) < 1e-9 {
			break
		}
	}
	return time.Duration(t * float64(time.Second))
}

// ParseSchedule builds a schedule from its CLI spec:
//
//	const:QPS            constant arrival rate
//	ramp:FROM-TO         linear sweep over the run duration
//	sine:BASE:AMP:PERIOD rate oscillation (PERIOD is a Go duration)
//
// A bare number is shorthand for const:QPS.
func ParseSchedule(spec string, runDuration time.Duration) (Schedule, error) {
	if q, err := strconv.ParseFloat(spec, 64); err == nil {
		spec = "const:" + strconv.FormatFloat(q, 'g', -1, 64)
	}
	kind, rest, _ := strings.Cut(spec, ":")
	switch kind {
	case "const":
		q, err := parseRate(rest)
		if err != nil {
			return nil, fmt.Errorf("loadgen: const schedule: %w", err)
		}
		return Constant{QPS: q}, nil
	case "ramp":
		from, to, ok := strings.Cut(rest, "-")
		if !ok {
			return nil, fmt.Errorf("loadgen: ramp schedule is ramp:FROM-TO, got %q", spec)
		}
		f, err1 := parseRate(from)
		t, err2 := parseRate(to)
		if err := errors.Join(err1, err2); err != nil {
			return nil, fmt.Errorf("loadgen: ramp schedule %q: %w", spec, err)
		}
		if runDuration <= 0 {
			return nil, fmt.Errorf("loadgen: ramp schedule needs a positive run duration")
		}
		return Ramp{From: f, To: t, Duration: runDuration}, nil
	case "sine":
		parts := strings.Split(rest, ":")
		if len(parts) != 3 {
			return nil, fmt.Errorf("loadgen: sine schedule is sine:BASE:AMP:PERIOD, got %q", spec)
		}
		base, err1 := parseRate(parts[0])
		amp, err2 := strconv.ParseFloat(parts[1], 64)
		period, err3 := time.ParseDuration(parts[2])
		if err := errors.Join(err1, err2, err3); err != nil {
			return nil, fmt.Errorf("loadgen: bad sine schedule %q: %w", spec, err)
		}
		if !(amp >= 0 && amp < base) || period <= 0 {
			return nil, fmt.Errorf("loadgen: sine schedule wants 0 <= amp < base, period > 0, got %q", spec)
		}
		return Sine{Base: base, Amp: amp, Period: period}, nil
	}
	return nil, fmt.Errorf("loadgen: unknown schedule %q (want const:QPS, ramp:FROM-TO, or sine:BASE:AMP:PERIOD)", spec)
}

// parseRate reads a QPS whose inter-arrival gap is a time.Duration of at
// least a nanosecond. Any other rate — infinite, NaN, so small that the gap
// overflows, so large that it rounds to zero — makes At stop growing, and a
// run that waits for At to pass its duration would never end.
func parseRate(s string) (float64, error) {
	q, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, err
	}
	if gap := float64(time.Second) / q; !(gap >= 1 && gap < math.MaxInt64) {
		return 0, fmt.Errorf("QPS %q is outside (%.3g, %g]: its inter-arrival gap does not fit in a time.Duration",
			s, float64(time.Second)/math.MaxInt64, float64(time.Second))
	}
	return q, nil
}
