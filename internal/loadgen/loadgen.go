// Package loadgen is the statistically rigorous load-generation substrate
// for the DACE serving stack: an open-loop request generator, a statistics
// engine for multi-run comparisons, and a soak scenario runner with
// latency-cliff and memory-creep gates.
//
// The generator is open-loop: request arrival times are drawn from a target
// schedule (constant, ramp, sine, or replay) fixed before the run, never
// from response completions. A closed-loop harness — N clients in a
// request/response loop, like benchmark/'s serve workloads — silently stops
// *sending* while the server is slow, so every stall removes exactly the
// samples that would have shown it: the coordinated-omission trap. Here the
// clock keeps ticking; each request's latency is measured from its
// *intended* start per the schedule to its completion, so time a request
// spent waiting behind a saturated server is charged to the server, not
// hidden by the harness.
//
// In-flight concurrency is bounded. An arrival that finds the window full
// is dropped and counted — an explicit load-shedding event in the report —
// rather than blocking the arrival clock (which would reintroduce
// coordination). Timeouts and 503 backpressure responses are likewise
// counted per class, never silently retried.
//
// Latencies are recorded into the telemetry package's lock-free log-linear
// histograms, the same structure the server's own metrics use, so windowed
// percentiles come from snapshot subtraction with no per-request
// allocation on the recording path.
package loadgen

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net"
	"net/http"
	"net/url"
	"strconv"
	"sync"
	"time"
)

// Request is one generated request. Bodies are owned by the workload
// source and must not be mutated by the target.
type Request struct {
	Body        []byte
	ContentType string
	Tenant      string // sent as X-DACE-Tenant when non-empty
}

// Response is a target's report of one completed request. Status is the
// HTTP status code (0 on transport error). RetryAfter carries a parsed
// Retry-After header on backpressure responses.
type Response struct {
	Status     int
	RetryAfter time.Duration
}

// Target issues one request and reports its outcome. Implementations must
// be safe for MaxInflight concurrent callers. A transport-level failure
// (connection refused, timeout) returns err; an HTTP error status is not
// an error — it comes back in Response for per-class accounting.
type Target interface {
	Do(req *Request) (Response, error)
}

// HTTPTarget drives a live daced or gateway over real sockets.
type HTTPTarget struct {
	URL    *url.URL // full endpoint URL, e.g. http://host:8080/predict
	Client *http.Client
}

// NewHTTPTarget builds a target for the given endpoint with a transport
// sized for the expected concurrency and a per-request timeout.
func NewHTTPTarget(rawURL string, maxConns int, timeout time.Duration) (*HTTPTarget, error) {
	u, err := url.Parse(rawURL)
	if err != nil {
		return nil, err
	}
	if maxConns <= 0 {
		maxConns = 256
	}
	return &HTTPTarget{
		URL: u,
		Client: &http.Client{
			Timeout: timeout,
			Transport: &http.Transport{
				MaxIdleConns:        maxConns,
				MaxIdleConnsPerHost: maxConns,
				DisableCompression:  true,
			},
		},
	}, nil
}

func (t *HTTPTarget) Do(req *Request) (Response, error) {
	hr := &http.Request{
		Method: http.MethodPost,
		URL:    t.URL,
		Header: http.Header{"Content-Type": []string{req.ContentType}, "User-Agent": nil},
		Body:   io.NopCloser(bytes.NewReader(req.Body)),
		GetBody: func() (io.ReadCloser, error) {
			return io.NopCloser(bytes.NewReader(req.Body)), nil
		},
		ContentLength: int64(len(req.Body)),
	}
	if req.Tenant != "" {
		hr.Header["X-Dace-Tenant"] = []string{req.Tenant}
	}
	resp, err := t.Client.Do(hr)
	if err != nil {
		return Response{}, err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return Response{Status: resp.StatusCode, RetryAfter: retryAfterOf(resp.Header, resp.StatusCode)}, nil
}

// HandlerTarget drives an http.Handler in-process: the full serving
// pipeline (decode, caches, admission, model) without kernel sockets. This
// is what the loadgen tests and internal/serve's drift-soak test use
// — the measured path is the server's, not the loopback stack's. The
// response body is discarded as it is written.
type HandlerTarget struct {
	Handler http.Handler
	Path    string // request path, default /predict
	Query   string // raw query string, optional
}

// discardResponse is a pooled, allocation-light ResponseWriter that counts
// bytes and captures the status plus the Retry-After header.
type discardResponse struct {
	header http.Header
	status int
	n      int
}

func (d *discardResponse) Header() http.Header { return d.header }
func (d *discardResponse) WriteHeader(code int) {
	if d.status == 0 {
		d.status = code
	}
}
func (d *discardResponse) Write(p []byte) (int, error) {
	if d.status == 0 {
		d.status = http.StatusOK
	}
	d.n += len(p)
	return len(p), nil
}

type handlerScratch struct {
	resp discardResponse
	body bytes.Reader
	req  http.Request
	url  url.URL
}

var handlerPool = sync.Pool{New: func() any { return new(handlerScratch) }}

func (t *HandlerTarget) Do(req *Request) (Response, error) {
	hs := handlerPool.Get().(*handlerScratch)
	defer handlerPool.Put(hs)
	path := t.Path
	if path == "" {
		path = "/predict"
	}
	hs.url = url.URL{Path: path, RawQuery: t.Query}
	hs.body.Reset(req.Body)
	hs.resp = discardResponse{header: make(http.Header, 4)}
	hs.req = http.Request{
		Method:        http.MethodPost,
		URL:           &hs.url,
		Header:        http.Header{"Content-Type": []string{req.ContentType}},
		Body:          io.NopCloser(&hs.body),
		ContentLength: int64(len(req.Body)),
		RemoteAddr:    "loadgen",
	}
	if req.Tenant != "" {
		hs.req.Header["X-Dace-Tenant"] = []string{req.Tenant}
	}
	t.Handler.ServeHTTP(&hs.resp, &hs.req)
	status := hs.resp.status
	if status == 0 {
		status = http.StatusOK
	}
	return Response{Status: status, RetryAfter: retryAfterOf(hs.resp.header, status)}, nil
}

// retryAfterOf parses a delay-seconds Retry-After from a backpressure
// response (503 or 429); anything else is 0.
func retryAfterOf(h http.Header, status int) time.Duration {
	if status != http.StatusServiceUnavailable && status != http.StatusTooManyRequests {
		return 0
	}
	v := h.Get("Retry-After")
	if v == "" {
		return 0
	}
	secs, err := strconv.Atoi(v)
	if err != nil || secs < 0 {
		return 0
	}
	return time.Duration(secs) * time.Second
}

// isTimeout classifies a transport error as a timeout for the runner's
// drop/timeout accounting.
func isTimeout(err error) bool {
	if errors.Is(err, context.DeadlineExceeded) {
		return true
	}
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}
