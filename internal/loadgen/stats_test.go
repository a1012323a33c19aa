package loadgen

import (
	"math"
	"testing"
)

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{4, 2, 1, 3, 5})
	if s.N != 5 || s.Min != 1 || s.Max != 5 || s.Mean != 3 || s.P50 != 3 {
		t.Errorf("Summarize: %+v", s)
	}
	if math.Abs(s.Std-math.Sqrt(2.5)) > 1e-12 {
		t.Errorf("Std = %g, want sqrt(2.5)", s.Std)
	}
	if z := Summarize(nil); z.N != 0 {
		t.Errorf("empty Summarize: %+v", z)
	}
}
