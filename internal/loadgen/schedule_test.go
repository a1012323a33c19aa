package loadgen

import (
	"testing"
	"time"
)

// arrivalsWithin counts how many scheduled arrivals land inside d.
func arrivalsWithin(s Schedule, d time.Duration) int64 {
	var i int64
	for ; s.At(i) <= d; i++ {
	}
	return i
}

func TestConstantSchedule(t *testing.T) {
	c := Constant{QPS: 1000}
	if got := c.At(100); got != 100*time.Millisecond {
		t.Errorf("At(100) = %s, want 100ms", got)
	}
	if n := arrivalsWithin(c, time.Second); n != 1001 {
		t.Errorf("arrivals in 1s at 1000 qps = %d, want 1001", n)
	}
}

func TestRampSchedule(t *testing.T) {
	r := Ramp{From: 100, To: 900, Duration: 2 * time.Second}
	// Average rate is 500 qps, so ~1000 arrivals over the 2s sweep.
	n := arrivalsWithin(r, 2*time.Second)
	if n < 950 || n > 1050 {
		t.Errorf("ramp 100-900 over 2s: %d arrivals, want ~1000", n)
	}
	// Monotone non-decreasing arrival times.
	prev := time.Duration(-1)
	for i := int64(0); i < n; i++ {
		at := r.At(i)
		if at < prev {
			t.Fatalf("At(%d)=%s < At(%d)=%s", i, at, i-1, prev)
		}
		prev = at
	}
	// The early half must be sparser than the late half: the midpoint
	// arrival falls past the midpoint in time.
	if mid := r.At(n / 2); mid <= time.Second {
		t.Errorf("ramp midpoint arrival at %s, want after 1s (rate grows over time)", mid)
	}
	// Degenerate flat ramp behaves like a constant schedule.
	flat := Ramp{From: 250, To: 250, Duration: time.Second}
	if got, want := flat.At(250), time.Second; got < want-time.Millisecond || got > want+time.Millisecond {
		t.Errorf("flat ramp At(250) = %s, want ~1s", got)
	}
}

func TestSineSchedule(t *testing.T) {
	s := Sine{Base: 500, Amp: 300, Period: time.Second}
	// Over whole periods the modulation integrates to zero: ~500/s.
	n := arrivalsWithin(s, 2*time.Second)
	if n < 950 || n > 1050 {
		t.Errorf("sine base 500 over 2 periods: %d arrivals, want ~1000", n)
	}
	prev := time.Duration(-1)
	for i := int64(0); i < n; i++ {
		at := s.At(i)
		if at < prev {
			t.Fatalf("At(%d)=%s < previous %s", i, at, prev)
		}
		prev = at
	}
	// First quarter-period runs above base rate: more than 125 arrivals in
	// the first 250ms.
	if q := arrivalsWithin(s, 250*time.Millisecond); q <= 130 {
		t.Errorf("first quarter period has %d arrivals, want >130 (rate peaks at 800 qps)", q)
	}
}

func TestParseSchedule(t *testing.T) {
	cases := []struct {
		spec string
		want string // fmt.Sprintf("%T")
	}{
		{"const:250", "loadgen.Constant"},
		{"800", "loadgen.Constant"}, // bare-number shorthand
		{"ramp:100-500", "loadgen.Ramp"},
		{"sine:400:200:30s", "loadgen.Sine"},
	}
	for _, c := range cases {
		s, err := ParseSchedule(c.spec, time.Minute)
		if err != nil {
			t.Errorf("ParseSchedule(%q): %v", c.spec, err)
			continue
		}
		if got := typeName(s); got != c.want {
			t.Errorf("ParseSchedule(%q) = %s, want %s", c.spec, got, c.want)
		}
	}
	for _, bad := range []string{"", "const:-5", "const:x", "ramp:100", "ramp:0-100", "sine:100:200:1s", "sine:100:50", "burst:9",
		// At(i) of each of these stops growing (0s, or a time.Duration
		// overflow), so a run over it would never end.
		"const:inf", "const:nan", "const:1e-300", "ramp:1-inf", "sine:inf:1:1s", "sine:nan:0:1s"} {
		if _, err := ParseSchedule(bad, time.Minute); err == nil {
			t.Errorf("ParseSchedule(%q) succeeded, want error", bad)
		}
	}
	// A slow rate whose gap is longer than the run is still a schedule.
	if s, err := ParseSchedule("const:0.5", time.Second); err != nil || s.At(1) != 2*time.Second {
		t.Errorf("ParseSchedule(const:0.5): %v, %v", s, err)
	}
	// Ramp without a run duration cannot define its sweep.
	if _, err := ParseSchedule("ramp:10-20", 0); err == nil {
		t.Error("ramp with zero run duration succeeded, want error")
	}
}

func typeName(v any) string {
	switch v.(type) {
	case Constant:
		return "loadgen.Constant"
	case Ramp:
		return "loadgen.Ramp"
	case Sine:
		return "loadgen.Sine"
	}
	return "?"
}
