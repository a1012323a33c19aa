package plan

import (
	"bytes"
	"fmt"
	"strconv"
	"unicode/utf16"
	"unicode/utf8"
	"unsafe"
)

// Decoder is a streaming plan parser that tokenizes a JSON plan document
// (the WriteJSON format) directly into flat DFS arenas — no intermediate
// *Node tree, no reflection, and no allocation at steady state: every
// buffer, including the FlatPlan's arrays, is retained and reused across
// calls. The canonical Fingerprint is computed as part of the decode, so a
// serving-cache lookup needs nothing beyond the parse.
//
// The grammar and field semantics match encoding/json unmarshalling into
// Plan: keys are matched ASCII-case-insensitively, unknown fields are
// skipped (but still syntax-checked), duplicate scalar fields follow
// last-value-wins, numbers use the same strconv parsing, and trailing
// bytes after the top-level value are ignored (json.Decoder.Decode
// semantics). The decoder is deliberately stricter in two places where
// encoding/json would corrupt or crash the flat representation: a repeated
// "children"/"root" key and a null element inside a children array are
// errors rather than silent tree surgery. Every document the decoder
// accepts parses to the same tree, fingerprint, and features as
// encoding/json (the tests' ReadJSON, their reference).
//
// A Decoder is not safe for concurrent use; pool instances instead.
type Decoder struct {
	f    FlatPlan
	data []byte
	pos  int

	key  []byte // scratch for unescaped object keys
	fold []byte // scratch for a key folded to its field name
	str  []byte // scratch for unescaped string values
}

// maxDecodeDepth mirrors encoding/json's nesting limit, so deeply nested
// documents fail identically on both paths.
const maxDecodeDepth = 10000

// Decode parses one JSON plan document from data. The returned FlatPlan
// aliases the decoder's internal arenas (and possibly data itself, for the
// database name): it is valid only until the next Decode/DecodeBinary call
// on this decoder.
func (d *Decoder) Decode(data []byte) (*FlatPlan, error) {
	d.data = data
	d.pos = 0
	d.f.reset()
	d.skipWS()
	if d.lit("null") {
		return &d.f, nil // null document: zero Plan, no root
	}
	if !d.consume('{') {
		return nil, d.errf("expected plan object")
	}
	rootSeen := false
	first := true
	for {
		d.skipWS()
		if d.consume('}') {
			break
		}
		if !first && !d.consume(',') {
			return nil, d.errf("expected ',' or '}' in plan object")
		}
		d.skipWS()
		first = false
		key, err := d.scanString(&d.key)
		if err != nil {
			return nil, err
		}
		d.skipWS()
		if !d.consume(':') {
			return nil, d.errf("expected ':' after object key")
		}
		d.skipWS()
		switch string(d.fieldName(key, planFields)) {
		case "database":
			if d.lit("null") {
				break
			}
			s, err := d.scanString(&d.str)
			if err != nil {
				return nil, err
			}
			d.f.database = append(d.f.database[:0], s...)
		case "sql":
			if d.lit("null") {
				break
			}
			if err := d.skipString(); err != nil {
				return nil, err
			}
		case "root":
			if rootSeen {
				return nil, d.errf("duplicate root field")
			}
			rootSeen = true
			if d.lit("null") {
				break
			}
			if err := d.parseNode(0); err != nil {
				return nil, err
			}
		default:
			if err := d.skipValue(0); err != nil {
				return nil, err
			}
		}
	}
	// Trailing bytes are ignored, as json.Decoder.Decode leaves them unread.
	d.f.rehash()
	return &d.f, nil
}

// parseNode parses one plan node object into the flat arenas at the given
// depth. Children recurse, so the arenas fill in DFS pre-order and each
// node's subtree size is simply how far the arena grew while it parsed.
func (d *Decoder) parseNode(depth int) error {
	if depth > maxDecodeDepth {
		return d.errf("exceeded max nesting depth")
	}
	if !d.consume('{') {
		return d.errf("expected plan node object")
	}
	idx := d.f.appendNode()
	d.f.Heights[idx] = int32(depth)
	childrenSeen := false
	first := true
	for {
		d.skipWS()
		if d.consume('}') {
			break
		}
		if !first && !d.consume(',') {
			return d.errf("expected ',' or '}' in plan node")
		}
		d.skipWS()
		first = false
		key, err := d.scanString(&d.key)
		if err != nil {
			return err
		}
		d.skipWS()
		if !d.consume(':') {
			return d.errf("expected ':' after object key")
		}
		d.skipWS()
		switch string(d.fieldName(key, nodeFields)) {
		case "type":
			if d.lit("null") {
				break
			}
			span, err := d.scanNumber()
			if err != nil {
				return err
			}
			v, err := strconv.ParseInt(unsafeString(span), 10, 64)
			if err != nil {
				return d.errf("invalid node type %q", string(span))
			}
			d.f.Types[idx] = NodeType(v)
		case "est_rows":
			if err := d.parseFloatField(&d.f.EstRows[idx]); err != nil {
				return err
			}
		case "est_cost":
			if err := d.parseFloatField(&d.f.EstCost[idx]); err != nil {
				return err
			}
		case "actual_rows":
			if err := d.parseFloatField(&d.f.ActualRows[idx]); err != nil {
				return err
			}
		case "actual_ms":
			if err := d.parseFloatField(&d.f.ActualMS[idx]); err != nil {
				return err
			}
		case "children":
			if childrenSeen {
				return d.errf("duplicate children field")
			}
			childrenSeen = true
			if d.lit("null") {
				break
			}
			if !d.consume('[') {
				return d.errf("children must be an array")
			}
			cc := 0
			for {
				d.skipWS()
				if d.consume(']') {
					break
				}
				if cc > 0 && !d.consume(',') {
					return d.errf("expected ',' or ']' in children array")
				}
				d.skipWS()
				if d.lit("null") {
					// encoding/json would store a nil *Node here, which every
					// downstream traversal dereferences; reject it instead.
					return d.errf("null plan node in children array")
				}
				if err := d.parseNode(depth + 1); err != nil {
					return err
				}
				cc++
			}
			d.f.ChildCount[idx] = int32(cc)
		default:
			if err := d.skipValue(0); err != nil {
				return err
			}
		}
	}
	d.f.Subtree[idx] = int32(len(d.f.Types) - idx)
	return nil
}

// parseFloatField parses one numeric field value (or null, a no-op) with
// encoding/json's exact semantics: JSON number grammar, then
// strconv.ParseFloat, range errors rejected.
func (d *Decoder) parseFloatField(dst *float64) error {
	if d.lit("null") {
		return nil
	}
	span, err := d.scanNumber()
	if err != nil {
		return err
	}
	v, err := strconv.ParseFloat(unsafeString(span), 64)
	if err != nil {
		// Syntax was validated by scanNumber, so this is a range overflow.
		return d.errf("number %q out of float64 range", string(span))
	}
	*dst = v
	return nil
}

// unsafeString views b as a string without copying, so strconv can parse
// straight out of the input buffer. The result must not outlive b, which is
// why parse errors above re-quote via string(span) (an owned copy) instead
// of surfacing strconv's error (it embeds the unsafe string).
func unsafeString(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	return unsafe.String(&b[0], len(b))
}

// planFields and nodeFields are the keys Decode and parseNode read: the
// JSON names of plan.Plan's and plan.Node's fields, lowercase ASCII as the
// struct tags all are.
var (
	planFields = []string{"database", "sql", "root"}
	nodeFields = []string{"type", "est_rows", "est_cost", "actual_rows", "actual_ms", "children"}
)

// fieldName returns the name key matches under encoding/json's field
// matching (bytes.EqualFold, Unicode simple folding), for one switch over
// the lowercase names. An ASCII key is folded once, into d.fold, and is its
// own answer. Only a key with high bytes pays for the full Unicode fold
// against each of names (U+212A and U+017F fold to ASCII 'k' and 's'); one
// that matches none comes back as it is, and no name has a high byte.
func (d *Decoder) fieldName(key []byte, names []string) []byte {
	for _, c := range key {
		if c >= utf8.RuneSelf {
			for _, name := range names {
				if bytes.EqualFold(key, []byte(name)) {
					d.fold = append(d.fold[:0], name...)
					return d.fold
				}
			}
			return key
		}
	}
	d.fold = append(d.fold[:0], key...)
	for i, c := range d.fold {
		if 'A' <= c && c <= 'Z' {
			d.fold[i] = c + 'a' - 'A'
		}
	}
	return d.fold
}

func (d *Decoder) skipWS() {
	for d.pos < len(d.data) {
		switch d.data[d.pos] {
		case ' ', '\t', '\n', '\r':
			d.pos++
		default:
			return
		}
	}
}

// consume advances past c if it is the next byte.
func (d *Decoder) consume(c byte) bool {
	if d.pos < len(d.data) && d.data[d.pos] == c {
		d.pos++
		return true
	}
	return false
}

// lit advances past the literal s if it is next in the input.
func (d *Decoder) lit(s string) bool {
	if len(d.data)-d.pos < len(s) || string(d.data[d.pos:d.pos+len(s)]) != s {
		return false
	}
	d.pos += len(s)
	return true
}

func (d *Decoder) errf(format string, args ...any) error {
	return fmt.Errorf("plan: decode: offset %d: %s", d.pos, fmt.Sprintf(format, args...))
}

// scanNumber validates the JSON number grammar and returns its span.
func (d *Decoder) scanNumber() ([]byte, error) {
	b, i := d.data, d.pos
	start := i
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		for i < len(b) && '0' <= b[i] && b[i] <= '9' {
			i++
		}
	default:
		return nil, d.errf("invalid number")
	}
	if i < len(b) && b[i] == '.' {
		i++
		if i >= len(b) || b[i] < '0' || b[i] > '9' {
			return nil, d.errf("invalid number: digit required after decimal point")
		}
		for i < len(b) && '0' <= b[i] && b[i] <= '9' {
			i++
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if i >= len(b) || b[i] < '0' || b[i] > '9' {
			return nil, d.errf("invalid number: digit required in exponent")
		}
		for i < len(b) && '0' <= b[i] && b[i] <= '9' {
			i++
		}
	}
	d.pos = i
	return b[start:i], nil
}

// scanString parses a JSON string (opening quote next) and returns its
// decoded bytes: a zero-copy view of the input when it contains no escapes
// and no bytes needing UTF-8 repair, otherwise an unescape into *scratch.
// The unescape follows encoding/json's unquote: \uXXXX with UTF-16
// surrogate pairing, lone surrogates and invalid UTF-8 replaced by U+FFFD.
func (d *Decoder) scanString(scratch *[]byte) ([]byte, error) {
	if !d.consume('"') {
		return nil, d.errf("expected string")
	}
	b := d.data
	start := d.pos
	i := start
	for i < len(b) {
		c := b[i]
		if c == '"' {
			d.pos = i + 1
			return b[start:i], nil
		}
		if c == '\\' || c >= utf8.RuneSelf {
			break // slow path: unescape / repair into scratch
		}
		if c < 0x20 {
			d.pos = i
			return nil, d.errf("control character in string")
		}
		i++
	}
	if i >= len(b) {
		d.pos = i
		return nil, d.errf("unterminated string")
	}
	out := append((*scratch)[:0], b[start:i]...)
	for i < len(b) {
		switch c := b[i]; {
		case c == '"':
			d.pos = i + 1
			*scratch = out
			return out, nil
		case c == '\\':
			i++
			if i >= len(b) {
				d.pos = i
				return nil, d.errf("unterminated escape")
			}
			switch b[i] {
			case '"', '\\', '/':
				out = append(out, b[i])
				i++
			case 'b':
				out = append(out, '\b')
				i++
			case 'f':
				out = append(out, '\f')
				i++
			case 'n':
				out = append(out, '\n')
				i++
			case 'r':
				out = append(out, '\r')
				i++
			case 't':
				out = append(out, '\t')
				i++
			case 'u':
				r, n, err := d.unescapeRune(b, i-1)
				if err != nil {
					return nil, err
				}
				out = utf8.AppendRune(out, r)
				i += n - 1
			default:
				d.pos = i
				return nil, d.errf("invalid escape character")
			}
		case c < 0x20:
			d.pos = i
			return nil, d.errf("control character in string")
		case c < utf8.RuneSelf:
			out = append(out, c)
			i++
		default:
			r, size := utf8.DecodeRune(b[i:])
			if r == utf8.RuneError && size == 1 {
				out = utf8.AppendRune(out, utf8.RuneError)
				i++
			} else {
				out = append(out, b[i:i+size]...)
				i += size
			}
		}
	}
	d.pos = i
	return nil, d.errf("unterminated string")
}

// unescapeRune decodes the \uXXXX escape starting at b[i] (which is '\\'),
// pairing UTF-16 surrogates like encoding/json (lone surrogates decode to
// U+FFFD). Returns the rune and the input bytes consumed.
func (d *Decoder) unescapeRune(b []byte, i int) (rune, int, error) {
	r, ok := hex4(b, i+2)
	if !ok {
		d.pos = i
		return 0, 0, d.errf("invalid \\u escape")
	}
	n := 6
	if utf16.IsSurrogate(r) {
		if i+12 <= len(b) && b[i+6] == '\\' && b[i+7] == 'u' {
			if r2, ok := hex4(b, i+8); ok {
				if dec := utf16.DecodeRune(r, r2); dec != utf8.RuneError {
					return dec, 12, nil
				}
			}
		}
		r = utf8.RuneError
	}
	return r, n, nil
}

// hex4 decodes 4 hex digits at b[i:].
func hex4(b []byte, i int) (rune, bool) {
	if i+4 > len(b) {
		return 0, false
	}
	var r rune
	for _, c := range b[i : i+4] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c = c - 'a' + 10
		case 'A' <= c && c <= 'F':
			c = c - 'A' + 10
		default:
			return 0, false
		}
		r = r*16 + rune(c)
	}
	return r, true
}

// skipString validates a JSON string without materializing it: escape
// structure and control characters are checked (as encoding/json's scanner
// does for skipped values), the contents are otherwise ignored.
func (d *Decoder) skipString() error {
	if !d.consume('"') {
		return d.errf("expected string")
	}
	b := d.data
	i := d.pos
	for i < len(b) {
		switch c := b[i]; {
		case c == '"':
			d.pos = i + 1
			return nil
		case c == '\\':
			i++
			if i >= len(b) {
				d.pos = i
				return d.errf("unterminated escape")
			}
			switch b[i] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
				i++
			case 'u':
				if _, ok := hex4(b, i+1); !ok {
					d.pos = i
					return d.errf("invalid \\u escape")
				}
				i += 5
			default:
				d.pos = i
				return d.errf("invalid escape character")
			}
		case c < 0x20:
			d.pos = i
			return d.errf("control character in string")
		default:
			i++
		}
	}
	d.pos = i
	return d.errf("unterminated string")
}

// skipValue validates and skips one JSON value of any type — unknown and
// meta fields must still be syntactically valid, exactly as encoding/json's
// scanner enforces while skipping.
func (d *Decoder) skipValue(depth int) error {
	if depth > maxDecodeDepth {
		return d.errf("exceeded max nesting depth")
	}
	d.skipWS()
	if d.pos >= len(d.data) {
		return d.errf("unexpected end of input")
	}
	switch c := d.data[d.pos]; {
	case c == '{':
		d.pos++
		first := true
		for {
			d.skipWS()
			if d.consume('}') {
				return nil
			}
			if !first && !d.consume(',') {
				return d.errf("expected ',' or '}' in object")
			}
			d.skipWS()
			first = false
			if err := d.skipString(); err != nil {
				return err
			}
			d.skipWS()
			if !d.consume(':') {
				return d.errf("expected ':' after object key")
			}
			if err := d.skipValue(depth + 1); err != nil {
				return err
			}
		}
	case c == '[':
		d.pos++
		first := true
		for {
			d.skipWS()
			if d.consume(']') {
				return nil
			}
			if !first && !d.consume(',') {
				return d.errf("expected ',' or ']' in array")
			}
			first = false
			if err := d.skipValue(depth + 1); err != nil {
				return err
			}
		}
	case c == '"':
		return d.skipString()
	case c == '-' || ('0' <= c && c <= '9'):
		_, err := d.scanNumber()
		return err
	case d.lit("true") || d.lit("false") || d.lit("null"):
		return nil
	default:
		return d.errf("invalid value")
	}
}
