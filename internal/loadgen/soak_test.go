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
