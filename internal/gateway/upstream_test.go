package gateway

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"dace/internal/plan"
)

// scriptServer accepts connections and answers each request on a
// connection with the next scripted response (raw bytes, written verbatim).
// closeAfter > 0 closes the connection after that many responses.
func scriptServer(t *testing.T, closeAfter int, responses ...string) (addr string, served *atomic.Int64, stop func()) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served = &atomic.Int64{}
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer c.Close()
				br := bufio.NewReader(c)
				for n := 0; ; n++ {
					if err := discardRequest(br); err != nil {
						return
					}
					i := int(served.Add(1)) - 1
					if i >= len(responses) {
						return
					}
					io.WriteString(c, responses[i])
					if closeAfter > 0 && n+1 >= closeAfter {
						return
					}
				}
			}()
		}
	}()
	return ln.Addr().String(), served, func() { ln.Close() }
}

// discardRequest reads one request (headers + Content-Length body).
func discardRequest(br *bufio.Reader) error {
	cl := 0
	first := true
	for {
		line, err := br.ReadString('\n')
		if err != nil {
			return err
		}
		line = strings.TrimRight(line, "\r\n")
		if line == "" && !first {
			break
		}
		first = false
		if n, ok := strings.CutPrefix(strings.ToLower(line), "content-length: "); ok {
			fmt.Sscanf(n, "%d", &cl)
		}
	}
	if cl > 0 {
		if _, err := io.CopyN(io.Discard, br, int64(cl)); err != nil {
			return err
		}
	}
	return nil
}

// The scripted responses the tests below send, each as a replica writes it.
// FuzzUpstreamResponse starts from these and from lyingResponses.
const (
	respHello    = "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 5\r\n\r\nhello"
	respNotFound = "HTTP/1.1 404 Not Found\r\nContent-Length: 2\r\n\r\nno"
	respChunked  = "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n5\r\nhello\r\n6\r\n world\r\n0\r\n\r\n"
	respCloseOK  = "HTTP/1.1 200 OK\r\nConnection: close\r\nContent-Length: 2\r\n\r\nok"
	respYes      = "HTTP/1.1 200 OK\r\nContent-Length: 3\r\n\r\nyes"
	respA        = "HTTP/1.1 200 OK\r\nContent-Length: 1\r\n\r\na"
	respB        = "HTTP/1.1 200 OK\r\nContent-Length: 1\r\n\r\nb"

	// respLyingLength declares a body no buffer can hold: sized from it,
	// make panics with "cap out of range" in whichever goroutine read the
	// response — the health loop's, for a probe, which kills the process.
	respLyingLength = "HTTP/1.1 200 OK\r\nContent-Length: 999999999999999999\r\n\r\nhello"
)

// lyingResponses are framings no daced replica sends. Each is a transport
// error, and none may cost the gateway more memory than the five body bytes
// actually sent: one 4 KiB growth step at most.
var lyingResponses = []string{
	respLyingLength,
	fmt.Sprintf("HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\nhello", maxResponseBody+1),
	"HTTP/1.1 200 OK\r\nContent-Length: 100000000\r\n\r\nhello", // under the bound, 5 bytes sent
	"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\nfffffff\r\nhello\r\n0\r\n\r\n",
	"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n\r\nhello", // no framing: runs to EOF
	"HTTP/1.1 200 OK\r\nContent-Length: 5x\r\n\r\nhello",
	"HTTP/1.1 200 OK\r\nContent-Length:\r\n\r\nhello",
}

func TestUpstreamContentLength(t *testing.T) {
	addr, _, stop := scriptServer(t, 0, respHello, respNotFound)
	defer stop()
	u := newUpstream(addr, addr)
	defer u.closeIdle()
	var ws wireBuf

	status, body, err := u.roundTrip(&ws, "POST", "/x", "application/json", tenantID{}, []byte("req"))
	if err != nil || status != 200 || string(body) != "hello" {
		t.Fatalf("got %d %q %v", status, body, err)
	}
	if string(ws.ct) != "application/json" {
		t.Fatalf("content type %q", ws.ct)
	}
	// Second request must reuse the pooled connection.
	status, body, err = u.roundTrip(&ws, "GET", "/y", "", tenantID{}, nil)
	if err != nil || status != 404 || string(body) != "no" {
		t.Fatalf("got %d %q %v", status, body, err)
	}
}

// TestUpstreamChunked: a chunked body is refused, not decoded — daced never
// sends one.
func TestUpstreamChunked(t *testing.T) {
	addr, _, stop := scriptServer(t, 1, respChunked)
	defer stop()
	u := newUpstream(addr, addr)
	defer u.closeIdle()
	var ws wireBuf
	if status, body, err := u.roundTrip(&ws, "GET", "/", "", tenantID{}, nil); err == nil {
		t.Fatalf("chunked response accepted: %d %q", status, body)
	}
}

// TestUpstreamRefusesLyingBodies: every lying framing is an error, and the
// buffer it leaves behind holds at most what the replica actually sent.
func TestUpstreamRefusesLyingBodies(t *testing.T) {
	for i, resp := range lyingResponses {
		addr, _, stop := scriptServer(t, 1, resp)
		u := newUpstream(addr, addr)
		var ws wireBuf
		status, body, err := u.roundTrip(&ws, "GET", "/", "", tenantID{}, nil)
		u.closeIdle()
		stop()
		if err == nil {
			t.Errorf("lie %d accepted: %d %q", i, status, body)
		}
		if cap(ws.resp) > 4096 {
			t.Errorf("lie %d: response buffer grew to %d bytes for a 5-byte body", i, cap(ws.resp))
		}
	}
}

func TestUpstreamConnectionClose(t *testing.T) {
	addr, _, stop := scriptServer(t, 0, respCloseOK, respYes)
	defer stop()
	u := newUpstream(addr, addr)
	defer u.closeIdle()
	var ws wireBuf
	if status, body, err := u.roundTrip(&ws, "GET", "/", "", tenantID{}, nil); err != nil || status != 200 || string(body) != "ok" {
		t.Fatalf("got %d %q %v", status, body, err)
	}
	// The close-flagged connection must not be reused; a fresh dial follows.
	if status, body, err := u.roundTrip(&ws, "GET", "/", "", tenantID{}, nil); err != nil || status != 200 || string(body) != "yes" {
		t.Fatalf("got %d %q %v", status, body, err)
	}
}

// TestUpstreamStaleConnRetry: a server that closes idle keep-alive
// connections must not surface errors — the round trip retries once on a
// fresh connection.
func TestUpstreamStaleConnRetry(t *testing.T) {
	addr, served, stop := scriptServer(t, 1, respA, respB)
	defer stop()
	u := newUpstream(addr, addr)
	defer u.closeIdle()
	var ws wireBuf
	if _, body, err := u.roundTrip(&ws, "GET", "/", "", tenantID{}, nil); err != nil || string(body) != "a" {
		t.Fatalf("got %q %v", body, err)
	}
	// The pooled connection is now closed server-side. Wait for the close
	// to land, then issue the next request through the stale pool entry.
	for i := 0; i < 100 && served.Load() < 1; i++ {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(10 * time.Millisecond)
	if _, body, err := u.roundTrip(&ws, "GET", "/", "", tenantID{}, nil); err != nil || string(body) != "b" {
		t.Fatalf("stale-conn retry failed: %q %v", body, err)
	}
}

// TestGatewaySurvivesLyingReplica: a replica that answers every probe and
// every /predict with an 18-digit Content-Length is ejected by the probes
// like a dead one, routed traffic gets 503 + Retry-After, and the gateway
// process lives on.
func TestGatewaySurvivesLyingReplica(t *testing.T) {
	lies := make([]string, 1000)
	for i := range lies {
		lies[i] = respLyingLength
	}
	addr, served, stop := scriptServer(t, 0, lies...)
	defer stop()
	gw, err := New(Config{Replicas: []string{addr}, HealthInterval: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer gw.Close()
	front := httptest.NewServer(gw.Handler())
	defer front.Close()

	deadline := time.Now().Add(3 * time.Second)
	for gw.Replicas()[0].Healthy {
		if time.Now().After(deadline) {
			t.Fatal("lying replica never ejected")
		}
		time.Sleep(time.Millisecond)
	}
	// Ejected on the failAfter-th lie; one more probe may have raced this
	// observation.
	if n := served.Load(); n < failAfter || n > failAfter+1 {
		t.Errorf("ejected after %d probes, want %d", n, failAfter)
	}
	st, hdr, body := post(t, front.URL+"/predict", plan.BinaryContentType, tinyPlanBinary(t, 0))
	if st != http.StatusServiceUnavailable || hdr.Get("Retry-After") == "" {
		t.Fatalf("routing to a lying fleet: %d (Retry-After %q): %s", st, hdr.Get("Retry-After"), body)
	}
	resp, err := http.Get(front.URL + "/healthz/live")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("liveness after the lies: %d", resp.StatusCode)
	}
}

// FuzzUpstreamResponse parses arbitrary bytes as one replica response. The
// parser never panics and never holds a buffer past maxResponseBody, or past
// twice the bytes it was sent plus one 4 KiB step; a body it accepts is
// exactly the declared Content-Length bytes that follow the header block.
func FuzzUpstreamResponse(f *testing.F) {
	for _, r := range []string{respHello, respNotFound, respChunked, respCloseOK, respYes, respA, respB} {
		f.Add([]byte(r))
	}
	for _, r := range lyingResponses {
		f.Add([]byte(r))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var ws wireBuf
		_, body, _, err := readResponse(bufio.NewReaderSize(bytes.NewReader(data), 16<<10), &ws)
		if c := cap(ws.resp); c > maxResponseBody || c > 2*len(data)+4096 {
			t.Fatalf("response buffer of %d bytes for a %d-byte input", c, len(data))
		}
		if err != nil {
			return
		}
		start, declared := declaredBody(data)
		if declared < 0 || len(body) != declared || !bytes.Equal(body, data[start:start+declared]) {
			t.Fatalf("accepted a %d-byte body; the response declares %d at offset %d", len(body), declared, start)
		}
	})
}

// declaredBody restates the framing readResponse must honour: header lines
// end in "\n" (a "\r" before it is dropped), the first empty one ends the
// block, and the last Content-Length header wins. It returns the body's
// offset and declared length (-1 if none).
func declaredBody(data []byte) (start, length int) {
	length = -1
	rest := string(data)
	for first := true; ; first = false {
		i := strings.IndexByte(rest, '\n')
		if i < 0 {
			return len(data), -1
		}
		line := strings.TrimSuffix(rest[:i], "\r")
		rest = rest[i+1:]
		if first {
			continue
		}
		if line == "" {
			return len(data) - len(rest), length
		}
		if name, val, ok := strings.Cut(line, ":"); ok && strings.EqualFold(name, "content-length") {
			length, _ = strconv.Atoi(strings.Trim(val, " \t"))
		}
	}
}

func TestParseReplicaURL(t *testing.T) {
	cases := []struct {
		in, addr string
		ok       bool
	}{
		{"http://localhost:8081", "localhost:8081", true},
		{"localhost:8081", "localhost:8081", true},
		{"http://10.1.2.3", "10.1.2.3:80", true},
		{"https://localhost:8081", "", false},
		{"http://", "", false},
		{"", "", false},
	}
	for _, c := range cases {
		addr, _, err := parseReplicaURL(c.in)
		if c.ok != (err == nil) {
			t.Errorf("%q: err=%v want ok=%v", c.in, err, c.ok)
			continue
		}
		if c.ok && addr != c.addr {
			t.Errorf("%q: addr %q want %q", c.in, addr, c.addr)
		}
	}
}
