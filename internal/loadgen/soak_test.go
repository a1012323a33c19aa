package loadgen

import (
	"net/http"
	"testing"
	"time"
)

// TestSoakEndToEnd runs a real (short) soak against an in-process handler
// and checks the plumbing: windows accumulate and their counters reconcile
// with the run's.
func TestSoakEndToEnd(t *testing.T) {
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(`{"cost":1}`))
	})
	res := Soak(SoakConfig{
		Options: Options{
			Target:     &HandlerTarget{Handler: h},
			Schedule:   Constant{QPS: 400},
			Duration:   1500 * time.Millisecond,
			NewRequest: oneRequest,
		},
		Window: 200 * time.Millisecond,
	})
	if len(res.Windows) < 5 {
		t.Fatalf("only %d windows for a 1.5s soak at 200ms windows", len(res.Windows))
	}
	var okSum int64
	for _, w := range res.Windows {
		okSum += w.OK
	}
	if okSum != res.Run.OK {
		t.Errorf("windowed OK sum %d != run OK %d — snapshot subtraction lost requests", okSum, res.Run.OK)
	}
	if res.Run.Errors+res.Run.Timeouts != 0 {
		t.Errorf("error-free handler: %+v", res.Run.Counts)
	}
}

// TestSoakWindowsSumToRun: many very short soaks against an instant target,
// so a request often completes before the window loop's first tick — and
// every one of them must be in some window.
func TestSoakWindowsSumToRun(t *testing.T) {
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {})
	for i := 0; i < 300; i++ {
		res := Soak(SoakConfig{
			Options: Options{
				Target:     &HandlerTarget{Handler: h},
				Schedule:   Constant{QPS: 2000},
				Duration:   5 * time.Millisecond,
				NewRequest: oneRequest,
			},
			Window: 2 * time.Millisecond,
		})
		var ok, offered int64
		for _, w := range res.Windows {
			ok += w.OK
			offered += w.Offered
		}
		if ok != res.Run.OK || offered != res.Run.Offered {
			t.Fatalf("soak %d: windows hold %d OK of %d offered, the run %d of %d", i, ok, offered, res.Run.OK, res.Run.Offered)
		}
	}
}
