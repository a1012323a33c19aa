package gateway

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"time"
)

// upstream is a minimal pooled HTTP/1.1 client for the gateway→replica hop.
// net/http's Transport allocates a Request, Response, header maps, and
// several goroutine handoffs per call; the gateway's proxy loop needs none
// of that. Requests here are written as one preassembled byte slice over a
// pooled persistent connection and responses are parsed with a borrowed
// bufio.Reader straight into caller-owned buffers, so a steady-state round
// trip performs zero heap allocations. The replicas are daced itself, and
// every daced response carries Content-Length: a response framed any other
// way is refused like a dropped connection.
type upstream struct {
	addr    string // dial target, host:port
	hostHdr string // Host header value
	idle    chan *uconn
}

const (
	connsPerReplica = 64               // idle connections pooled per replica
	dialTimeout     = 2 * time.Second  // upstream connection establishment
	ioTimeout       = 10 * time.Second // one whole round trip

	// maxResponseBody bounds the Content-Length the gateway accepts. The
	// largest response a replica renders answers a wire.MaxBatchBody
	// (64 MiB) binary batch of one-node plans: each costs at least 36
	// request bytes (two one-byte uvarints and a 34-byte node) and renders
	// at most 234 response bytes (`{"root_ms":` with a 25-byte float, one
	// sub-plan object of six fields — three 25-byte floats, two 7-digit
	// integers, a 19-byte operator name — and the separators), at most 6.5×
	// the request: 416 MiB. Anything longer is a lie.
	maxResponseBody = 512 << 20
)

// uconn is one persistent upstream connection with its read buffer.
type uconn struct {
	c  net.Conn
	br *bufio.Reader
}

func newUpstream(addr, hostHdr string) *upstream {
	return &upstream{addr: addr, hostHdr: hostHdr, idle: make(chan *uconn, connsPerReplica)}
}

// get returns an idle connection or dials a fresh one. reused reports which.
func (u *upstream) get() (*uconn, bool, error) {
	select {
	case c := <-u.idle:
		return c, true, nil
	default:
	}
	nc, err := net.DialTimeout("tcp", u.addr, dialTimeout)
	if err != nil {
		return nil, false, err
	}
	if tc, ok := nc.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}
	return &uconn{c: nc, br: bufio.NewReaderSize(nc, 16<<10)}, false, nil
}

// put returns a healthy keep-alive connection to the pool (or closes it
// when the pool is full).
func (u *upstream) put(c *uconn) {
	select {
	case u.idle <- c:
	default:
		c.c.Close()
	}
}

// closeIdle drains and closes every pooled connection.
func (u *upstream) closeIdle() {
	for {
		select {
		case c := <-u.idle:
			c.c.Close()
		default:
			return
		}
	}
}

// wireBuf holds the request/response scratch one upstream round trip needs.
// ct captures the response's Content-Type so the gateway can pass it through
// (copied into the scratch — header lines live in the bufio buffer and are
// invalidated by the next read).
type wireBuf struct {
	req  []byte
	resp []byte
	ct   []byte
}

// appendRequest assembles one complete HTTP/1.1 request. The header set is
// near-fixed — the gateway always speaks the binary plan encoding upstream;
// a tenant identity adds either one query param or one header — so assembly
// is a handful of appends into the reused request buffer.
func (u *upstream) appendRequest(dst []byte, method, path, contentType string, tenant tenantID, body []byte) []byte {
	dst = append(dst, method...)
	dst = append(dst, ' ')
	dst = append(dst, path...)
	if tenant.id != "" && !tenant.explicit {
		// Implicit identity rides the same query param the client used; the
		// forwarded paths carry no query string of their own. tenantOf has
		// already constrained the value to the tenant-ID alphabet.
		dst = append(dst, "?database="...)
		dst = append(dst, tenant.id...)
	}
	dst = append(dst, " HTTP/1.1\r\nHost: "...)
	dst = append(dst, u.hostHdr...)
	dst = append(dst, "\r\n"...)
	if tenant.id != "" && tenant.explicit {
		dst = append(dst, "X-DACE-Tenant: "...)
		dst = append(dst, tenant.id...)
		dst = append(dst, "\r\n"...)
	}
	if contentType != "" {
		dst = append(dst, "Content-Type: "...)
		dst = append(dst, contentType...)
		dst = append(dst, "\r\n"...)
	}
	if body != nil || method == "POST" {
		dst = append(dst, "Content-Length: "...)
		dst = strconv.AppendInt(dst, int64(len(body)), 10)
		dst = append(dst, "\r\n"...)
	}
	dst = append(dst, "\r\n"...)
	return append(dst, body...)
}

var errStaleConn = errors.New("gateway: stale upstream connection")

// roundTrip performs one request against the replica and reads the entire
// response body into ws.resp, returning the status code and the body (which
// aliases ws.resp — valid until the next round trip on this wireBuf). A
// request that fails on a *reused* connection before any response byte
// arrives is retried once on a fresh connection — the only failure mode a
// keep-alive pool invents (the replica closed the idle connection under
// us). Every other transport error is returned to the caller, which treats
// it as a replica health signal.
func (u *upstream) roundTrip(ws *wireBuf, method, path, contentType string, tenant tenantID, body []byte) (int, []byte, error) {
	ws.req = u.appendRequest(ws.req[:0], method, path, contentType, tenant, body)
	for attempt := 0; ; attempt++ {
		c, reused, err := u.get()
		if err != nil {
			return 0, nil, err
		}
		status, respBody, keep, err := u.once(c, ws)
		if err != nil {
			c.c.Close()
			if reused && attempt == 0 && errors.Is(err, errStaleConn) {
				continue
			}
			return 0, nil, err
		}
		if keep {
			u.put(c)
		} else {
			c.c.Close()
		}
		return status, respBody, nil
	}
}

// once writes the prepared request on c and parses the response. keep
// reports whether the connection may be pooled again.
func (u *upstream) once(c *uconn, ws *wireBuf) (status int, body []byte, keep bool, err error) {
	if err := c.c.SetDeadline(time.Now().Add(ioTimeout)); err != nil {
		return 0, nil, false, err
	}
	if _, err := c.c.Write(ws.req); err != nil {
		return 0, nil, false, errStaleConn
	}
	if c.br.Buffered() > 0 {
		// Leftover bytes from a previous exchange: the framing is broken.
		return 0, nil, false, fmt.Errorf("gateway: upstream connection out of sync")
	}
	return readResponse(c.br, ws)
}

// readResponse parses one response from br: the status line, the headers the
// gateway reads, and a body of exactly Content-Length bytes into ws.resp.
func readResponse(br *bufio.Reader, ws *wireBuf) (status int, body []byte, keep bool, err error) {
	// Status line: "HTTP/1.1 200 OK".
	line, err := readLine(br)
	if err != nil {
		if err == io.EOF || errors.Is(err, io.ErrUnexpectedEOF) {
			return 0, nil, false, errStaleConn
		}
		return 0, nil, false, err
	}
	sp := indexByte(line, ' ')
	if sp < 0 || len(line) < sp+4 {
		return 0, nil, false, fmt.Errorf("gateway: malformed status line %q", line)
	}
	for _, d := range line[sp+1 : sp+4] {
		if d < '0' || d > '9' {
			return 0, nil, false, fmt.Errorf("gateway: malformed status line %q", line)
		}
		status = status*10 + int(d-'0')
	}

	// Headers: Content-Length and Connection for framing, Content-Type for
	// pass-through.
	contentLength := -1
	keep = true
	ws.ct = ws.ct[:0]
	for {
		line, err := readLine(br)
		if err != nil {
			return 0, nil, false, err
		}
		if len(line) == 0 {
			break
		}
		colon := indexByte(line, ':')
		if colon < 0 {
			continue
		}
		name, val := line[:colon], trimSpaceBytes(line[colon+1:])
		switch {
		case eqFold(name, "content-length"):
			// Parsed with a digit loop, not strconv over string(val): the
			// conversion would allocate on every response.
			n := 0
			for _, d := range val {
				if d < '0' || d > '9' || n > maxResponseBody {
					return 0, nil, false, fmt.Errorf("gateway: bad Content-Length %q", val)
				}
				n = n*10 + int(d-'0')
			}
			if len(val) == 0 || n > maxResponseBody {
				return 0, nil, false, fmt.Errorf("gateway: bad Content-Length %q", val)
			}
			contentLength = n
		case eqFold(name, "connection"):
			if eqFold(val, "close") {
				keep = false
			}
		case eqFold(name, "content-type"):
			ws.ct = append(ws.ct[:0], val...)
		}
	}
	if contentLength < 0 {
		return 0, nil, false, errors.New("gateway: upstream response without Content-Length")
	}

	// Read the body. A buffer too small for it grows only as bytes arrive,
	// so a replica that declares more than it sends costs the gateway what
	// it sent, not what it declared.
	ws.resp = ws.resp[:0]
	for len(ws.resp) < contentLength {
		if len(ws.resp) == cap(ws.resp) {
			grown := make([]byte, len(ws.resp), min(contentLength, 2*cap(ws.resp)+4096))
			copy(grown, ws.resp)
			ws.resp = grown
		}
		end := min(contentLength, cap(ws.resp))
		if _, err := io.ReadFull(br, ws.resp[len(ws.resp):end]); err != nil {
			return 0, nil, false, err
		}
		ws.resp = ws.resp[:end]
	}
	return status, ws.resp, keep, nil
}

// probe performs a small GET and reports whether it answered 200 — the
// health checker's primitive.
func (u *upstream) probe(ws *wireBuf, path string) bool {
	status, _, err := u.roundTrip(ws, "GET", path, "", tenantID{}, nil)
	return err == nil && status == 200
}

// readLine returns the next CRLF-terminated line (without the terminator).
// The line must fit the reader's buffer — true for every header daced emits.
func readLine(br *bufio.Reader) ([]byte, error) {
	line, err := br.ReadSlice('\n')
	if err != nil {
		return nil, err
	}
	if n := len(line); n >= 2 && line[n-2] == '\r' {
		return line[:n-2], nil
	}
	return line[:len(line)-1], nil
}

func indexByte(b []byte, c byte) int {
	for i := range b {
		if b[i] == c {
			return i
		}
	}
	return -1
}

func trimSpaceBytes(b []byte) []byte {
	for len(b) > 0 && (b[0] == ' ' || b[0] == '\t') {
		b = b[1:]
	}
	for len(b) > 0 && (b[len(b)-1] == ' ' || b[len(b)-1] == '\t') {
		b = b[:len(b)-1]
	}
	return b
}

// eqFold reports ASCII case-insensitive equality of b against lowercase s.
func eqFold[T ~[]byte | ~string](b T, s string) bool {
	if len(b) != len(s) {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := b[i]
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		if c != s[i] {
			return false
		}
	}
	return true
}
