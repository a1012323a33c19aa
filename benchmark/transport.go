package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"strconv"
	"time"

	"dace/internal/plan"
)

// Two ways to reach a handler, both reusing every object across calls so
// the harness itself allocates nothing per operation: inproc calls
// ServeHTTP directly (what serve_hot measures — over a socket a 2 µs hit
// drowns in 15 µs of loopback stack and its jitter), and sockConn is a
// keep-alive HTTP/1.1 connection written by hand, because net/http's client
// adds two goroutine hand-offs per request on a two-core box.

var (
	ctJSON   = []string{"application/json"}
	ctBinary = []string{plan.BinaryContentType}
)

// inproc drives an http.Handler in process. Not safe for concurrent use:
// one per client.
type inproc struct {
	h    http.Handler
	req  http.Request
	u    url.URL
	body bodyReader
	w    captureWriter
}

type bodyReader struct{ bytes.Reader }

func (*bodyReader) Close() error { return nil }

// captureWriter keeps the status and the response bytes of the last call.
type captureWriter struct {
	hdr    http.Header
	status int
	buf    []byte
}

func (w *captureWriter) Header() http.Header { return w.hdr }
func (w *captureWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
}
func (w *captureWriter) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	w.buf = append(w.buf, p...)
	return len(p), nil
}

func newInproc(h http.Handler) *inproc {
	c := &inproc{h: h}
	c.w.hdr = make(http.Header, 4)
	c.req = http.Request{
		URL: &c.u, Header: make(http.Header, 2), Body: &c.body,
		Proto: "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1, RemoteAddr: "benchmark",
	}
	return c
}

// do issues one request; the returned bytes are valid until the next call.
func (c *inproc) do(method, path string, ctype []string, body []byte) (int, []byte) {
	c.u.Path = path
	c.req.Method = method
	c.req.Header["Content-Type"] = ctype
	c.req.ContentLength = int64(len(body))
	c.body.Reset(body)
	clear(c.w.hdr)
	c.w.status, c.w.buf = 0, c.w.buf[:0]
	c.h.ServeHTTP(&c.w, &c.req)
	if c.w.status == 0 {
		c.w.status = http.StatusOK
	}
	return c.w.status, c.w.buf
}

// sockConn is one keep-alive loopback connection.
type sockConn struct {
	c    net.Conn
	br   *bufio.Reader
	host string
	out  []byte
	resp []byte
}

func dialSock(addr string) (*sockConn, error) {
	c, err := net.DialTimeout("tcp", addr, 2*time.Second)
	if err != nil {
		return nil, err
	}
	return &sockConn{c: c, br: bufio.NewReaderSize(c, 64<<10), host: addr}, nil
}

func (s *sockConn) close() { s.c.Close() }

// do writes one request and reads the whole response; the returned bytes are
// valid until the next call. The servers under test always answer with a
// Content-Length, so anything else is reported as a transport error.
func (s *sockConn) do(method, path string, ctype []string, body []byte) (int, []byte, error) {
	o := append(s.out[:0], method...)
	o = append(o, ' ')
	o = append(o, path...)
	o = append(o, " HTTP/1.1\r\nHost: "...)
	o = append(o, s.host...)
	if ctype != nil {
		o = append(o, "\r\nContent-Type: "...)
		o = append(o, ctype[0]...)
	}
	o = append(o, "\r\nContent-Length: "...)
	o = strconv.AppendInt(o, int64(len(body)), 10)
	o = append(o, "\r\n\r\n"...)
	o = append(o, body...)
	s.out = o
	if err := s.c.SetDeadline(time.Now().Add(10 * time.Second)); err != nil {
		return 0, nil, err
	}
	if _, err := s.c.Write(o); err != nil {
		return 0, nil, err
	}
	line, err := s.br.ReadSlice('\n')
	if err != nil {
		return 0, nil, err
	}
	// "HTTP/1.1 200 OK\r\n"
	if len(line) < 12 || !bytes.HasPrefix(line, []byte("HTTP/1.")) {
		return 0, nil, fmt.Errorf("benchmark: malformed status line %q", line)
	}
	status := int(line[9]-'0')*100 + int(line[10]-'0')*10 + int(line[11]-'0')
	length := -1
	for {
		line, err = s.br.ReadSlice('\n')
		if err != nil {
			return 0, nil, err
		}
		if len(line) <= 2 {
			break
		}
		const cl = "content-length:"
		if len(line) > len(cl) && bytes.EqualFold(line[:len(cl)], []byte(cl)) {
			length = 0
			for _, ch := range bytes.TrimSpace(line[len(cl):]) {
				if ch < '0' || ch > '9' {
					return 0, nil, fmt.Errorf("benchmark: bad Content-Length %q", line)
				}
				length = length*10 + int(ch-'0')
			}
		}
	}
	if length < 0 {
		return 0, nil, fmt.Errorf("benchmark: response without Content-Length")
	}
	if cap(s.resp) < length {
		s.resp = make([]byte, length)
	}
	s.resp = s.resp[:length]
	if _, err := io.ReadFull(s.br, s.resp); err != nil {
		return 0, nil, err
	}
	return status, s.resp, nil
}
