package gateway

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"dace/internal/plan"
	"dace/internal/telemetry"
)

// loopServer answers every request on every connection with the same raw
// response, forever — a replica stand-in for steady-state probes. The
// serving loop itself is allocation-free after the first request so it
// cannot pollute AllocsPerRun measurements (it shares the process heap).
func loopServer(t *testing.T, response string) (addr string, stop func()) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	resp := []byte(response)
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer c.Close()
				br := bufio.NewReaderSize(c, 16<<10)
				var scratch [4096]byte
				for {
					if err := discardRequestNoAlloc(br, scratch[:]); err != nil {
						return
					}
					if _, err := c.Write(resp); err != nil {
						return
					}
				}
			}()
		}
	}()
	return ln.Addr().String(), func() { ln.Close() }
}

// discardRequestNoAlloc reads one request (headers + Content-Length body)
// using only byte-slice operations.
func discardRequestNoAlloc(br *bufio.Reader, scratch []byte) error {
	cl := 0
	first := true
	for {
		line, err := readLine(br)
		if err != nil {
			return err
		}
		if len(line) == 0 && !first {
			break
		}
		first = false
		if colon := indexByte(line, ':'); colon >= 0 && eqFold(line[:colon], "content-length") {
			for _, d := range trimSpaceBytes(line[colon+1:]) {
				if d < '0' || d > '9' {
					return fmt.Errorf("bad content-length")
				}
				cl = cl*10 + int(d-'0')
			}
		}
	}
	for cl > 0 {
		n := cl
		if n > len(scratch) {
			n = len(scratch)
		}
		if _, err := io.ReadFull(br, scratch[:n]); err != nil {
			return err
		}
		cl -= n
	}
	return nil
}

// TestRoutedPredictZeroAlloc is the tentpole's allocation guard: the whole
// gateway-side /predict path — body read, streaming decode, fingerprint
// routing, upstream round trip over a pooled connection, response
// pass-through — allocates nothing at steady state, for both client wire
// formats. The health loop is parked on a long interval so only the
// request path is measured.
func TestRoutedPredictZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are distorted under the race detector")
	}
	const reply = `{"root_ms":4.25,"subplans":[]}` + "\n"
	response := fmt.Sprintf("HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n%s", len(reply), reply)
	addr, stop := loopServer(t, response)
	defer stop()

	p := &plan.Plan{Database: "db", Root: &plan.Node{
		Type: 3, EstRows: 100, EstCost: 42.5, ActualRows: 90, ActualMS: 7,
		Children: []*plan.Node{{Type: 1, EstRows: 10, EstCost: 2, ActualRows: 9, ActualMS: 1}},
	}}
	binBody, err := plan.AppendBinary(nil, p)
	if err != nil {
		t.Fatal(err)
	}
	var jsonBuf []byte
	jsonBuf, err = appendPlanJSON(jsonBuf, p)
	if err != nil {
		t.Fatal(err)
	}

	// Metrics off is the bare handler; on, the handler runs inside the
	// instrument wrapper exactly as the mux mounts it — the status recorder
	// is pooled and the instruments are atomics, so the budget is the same.
	for _, mc := range []struct {
		prefix string
		reg    *telemetry.Registry
	}{{"", nil}, {"instrumented-", telemetry.NewRegistry()}} {
		gw, err := New(Config{Replicas: []string{addr}, HealthInterval: time.Hour, Metrics: mc.reg})
		if err != nil {
			t.Fatal(err)
		}
		defer gw.Close()
		handle := gw.instrument("/predict", gw.handlePredict)

		for _, tc := range []struct {
			name, ct string
			body     []byte
		}{
			{"binary", plan.BinaryContentType, binBody},
			{"json", "application/json", jsonBuf},
		} {
			t.Run(mc.prefix+tc.name, func(t *testing.T) {
				body := &replayBody{data: tc.body}
				req := httptest.NewRequest(http.MethodPost, "/predict", nil)
				req.Header.Set("Content-Type", tc.ct)
				req.Body = body
				w := &nullResponseWriter{h: make(http.Header)}
				do := func() {
					body.off = 0
					handle(w, req)
					if w.code != 0 && w.code != http.StatusOK {
						t.Fatalf("status %d", w.code)
					}
				}
				do() // warm: dials the upstream conn, grows every scratch buffer
				if avg := testing.AllocsPerRun(200, do); avg != 0 {
					t.Errorf("routed /predict (%s) allocates %.1f/op at steady state, want 0", mc.prefix+tc.name, avg)
				}
			})
		}
	}
}

// appendPlanJSON renders a plan document without an encoder allocation at
// measurement time (built once, replayed).
func appendPlanJSON(dst []byte, p *plan.Plan) ([]byte, error) {
	var node func(dst []byte, n *plan.Node) []byte
	node = func(dst []byte, n *plan.Node) []byte {
		dst = append(dst, fmt.Sprintf(`{"type":%d,"est_rows":%g,"est_cost":%g,"actual_rows":%g,"actual_ms":%g`,
			int(n.Type), n.EstRows, n.EstCost, n.ActualRows, n.ActualMS)...)
		if len(n.Children) > 0 {
			dst = append(dst, `,"children":[`...)
			for i, c := range n.Children {
				if i > 0 {
					dst = append(dst, ',')
				}
				dst = node(dst, c)
			}
			dst = append(dst, ']')
		}
		return append(dst, '}')
	}
	dst = append(dst, `{"database":"`...)
	dst = append(dst, p.Database...)
	dst = append(dst, `","root":`...)
	dst = node(dst, p.Root)
	return append(dst, '}'), nil
}

// nullResponseWriter reuses one header map and discards the body.
type nullResponseWriter struct {
	h    http.Header
	code int
}

func (n *nullResponseWriter) Header() http.Header         { return n.h }
func (n *nullResponseWriter) Write(p []byte) (int, error) { return len(p), nil }
func (n *nullResponseWriter) WriteHeader(code int)        { n.code = code }

// replayBody is a rewindable io.ReadCloser over fixed bytes.
type replayBody struct {
	data []byte
	off  int
}

func (b *replayBody) Read(p []byte) (int, error) {
	if b.off >= len(b.data) {
		return 0, io.EOF
	}
	n := copy(p, b.data[b.off:])
	b.off += n
	return n, nil
}
func (b *replayBody) Close() error { return nil }
