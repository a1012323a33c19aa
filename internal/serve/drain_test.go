package serve

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestBeginDrainUnderLoad hammers /predict from concurrent clients while
// BeginDrain and Close race in from other goroutines, and checks the
// drain contract end to end:
//
//   - every response is either 200 (in-flight or pre-close work completes)
//     or 503 with Retry-After (post-close rejection) — never a hang, a 500,
//     or a 503 without the backoff header;
//   - readiness flips true→false exactly once and never comes back;
//   - /healthz/ready advertises the drain with 503 + Retry-After while
//     /predict is still answering — ejection leads the drain.
//
// Run under -race this doubles as the concurrency audit of the
// draining/ready/stage-close interplay.
func TestBeginDrainUnderLoad(t *testing.T) {
	base, samples := trainedServer(t)
	// Admission stage on, caches off: every request must cross the stage, so
	// the post-close 503 path is actually exercised (a body-cache hit would
	// answer 200 without touching it). Two slots for eight clients, so Close
	// lands with requests both holding and waiting for one.
	s := NewWithConfig(base.Model(), Config{
		MaxBatch:   8,
		QueueDepth: 256,
	})
	s.Workers = 2
	h := s.Handler()

	var body bytes.Buffer
	if err := samples[0].Plan.WriteJSON(&body); err != nil {
		t.Fatal(err)
	}
	reqBody := body.Bytes()

	// Readiness monitor: a tight sampling loop counting transitions. Only
	// one true→false flip may ever be visible, no matter how many
	// goroutines call BeginDrain/Close concurrently.
	monStop := make(chan struct{})
	var monDone sync.WaitGroup
	var upFlips, downFlips atomic.Int64
	monDone.Add(1)
	go func() {
		defer monDone.Done()
		prev := s.Ready()
		for {
			select {
			case <-monStop:
				return
			default:
			}
			cur := s.Ready()
			if cur != prev {
				if cur {
					upFlips.Add(1)
				} else {
					downFlips.Add(1)
				}
				prev = cur
			}
		}
	}()

	// Client fleet: loop until stopped, classifying every response.
	var ok200, ok503, bad atomic.Int64
	cliStop := make(chan struct{})
	var clients sync.WaitGroup
	for c := 0; c < 8; c++ {
		clients.Add(1)
		go func() {
			defer clients.Done()
			for {
				select {
				case <-cliStop:
					return
				default:
				}
				req := httptest.NewRequest(http.MethodPost, "/predict", bytes.NewReader(reqBody))
				req.Header.Set("Content-Type", "application/json")
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, req)
				switch {
				case rec.Code == http.StatusOK:
					ok200.Add(1)
				case rec.Code == http.StatusServiceUnavailable && rec.Header().Get("Retry-After") != "":
					ok503.Add(1)
				default:
					bad.Add(1)
					t.Errorf("unexpected response: %d (Retry-After %q)", rec.Code, rec.Header().Get("Retry-After"))
				}
			}
		}()
	}

	time.Sleep(50 * time.Millisecond)
	if n := ok200.Load(); n == 0 {
		t.Fatal("no successful requests before drain")
	}

	// Drain begins, racing from several goroutines (it must be idempotent).
	var drainers sync.WaitGroup
	for i := 0; i < 4; i++ {
		drainers.Add(1)
		go func() {
			defer drainers.Done()
			s.BeginDrain()
		}()
	}
	drainers.Wait()

	// Readiness is down but serving is up: the gateway gets its eviction
	// head start while in-flight (and new) work still completes.
	req := httptest.NewRequest(http.MethodGet, "/healthz/ready", nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusServiceUnavailable || rec.Header().Get("Retry-After") == "" {
		t.Errorf("/healthz/ready during drain: %d (Retry-After %q), want 503 with Retry-After",
			rec.Code, rec.Header().Get("Retry-After"))
	}
	before200 := ok200.Load()
	time.Sleep(30 * time.Millisecond)
	if ok200.Load() == before200 {
		t.Error("no requests completed between BeginDrain and Close — drain must not stop serving")
	}

	// Close races too: the stage's drain answers everything already
	// admitted or waiting, then rejects.
	var closers sync.WaitGroup
	for i := 0; i < 2; i++ {
		closers.Add(1)
		go func() {
			defer closers.Done()
			s.Close()
		}()
	}
	closers.Wait()

	// A fresh request after Close must be the 503+Retry-After rejection.
	req = httptest.NewRequest(http.MethodPost, "/predict", bytes.NewReader(reqBody))
	req.Header.Set("Content-Type", "application/json")
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusServiceUnavailable || rec.Header().Get("Retry-After") == "" {
		t.Errorf("post-close /predict: %d (Retry-After %q), want 503 with Retry-After",
			rec.Code, rec.Header().Get("Retry-After"))
	}

	close(cliStop)
	clients.Wait()
	close(monStop)
	monDone.Wait()

	if got := downFlips.Load(); got != 1 {
		t.Errorf("readiness flipped down %d times, want exactly 1", got)
	}
	if got := upFlips.Load(); got != 0 {
		t.Errorf("readiness came back up %d times during drain, want 0", got)
	}
	if s.Ready() {
		t.Error("server still ready after Close")
	}
	t.Logf("drain test: %d ok, %d backpressured, %d bad", ok200.Load(), ok503.Load(), bad.Load())
}

// TestCloseDrainsAdmittedAndWaiting pins close()'s contract without timing:
// with one forward holding the only slot and two requests waiting behind it,
// close must not return until all three are answered successfully, while a
// submit arriving after close began is refused with errClosed at once.
func TestCloseDrainsAdmittedAndWaiting(t *testing.T) {
	m, samples := trainedModel(t)
	s, probe := probeStage(m, 1, 16)
	b := s.bat
	plans := flatPlans(samples, 4)

	var done []<-chan error
	for i := 0; i < 3; i++ {
		done = append(done, submitAsync(b, plans[i]))
		waitFor(t, func() bool { return probe.running() == 1 && b.stats().Depth == i })
	}

	closed := make(chan struct{})
	go func() {
		s.Close()
		close(closed)
	}()
	waitFor(t, func() bool {
		b.mu.Lock()
		defer b.mu.Unlock()
		return b.closed
	})
	if _, err := b.submit(plans[3], b.srv.Model()); err != errClosed {
		t.Fatalf("submit after Close began: err = %v, want errClosed", err)
	}
	select {
	case <-closed:
		t.Fatal("Close returned with a forward running and two requests waiting")
	default:
	}
	if qs := b.stats(); qs.Depth != 2 {
		t.Fatalf("close dropped waiters: depth %d, want 2", qs.Depth)
	}

	close(probe.gate)
	for i, d := range done {
		if err := <-d; err != nil {
			t.Fatalf("request %d admitted before Close failed: %v", i, err)
		}
	}
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not return after the stage drained")
	}
	s.Close() // idempotent on a drained stage
}
