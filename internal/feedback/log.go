package feedback

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"sync"

	"dace/internal/plan"
)

// Log is the durable side of the replay buffer: an append-only file of
// CRC32-framed records, one per feedback sample. Each record is
//
//	[4-byte LE payload length][4-byte CRC32(payload)][payload]
//	payload = [float64 LE actual_ms][float64 LE predicted_ms][binary plan frame]
//
// the plan frame being what /predict speaks (plan.FlatPlan.AppendBinaryFrame).
// A payload without the frame's magic at byte 16 is read as the JSON earlier
// builds wrote ({"plan":…,"actual_ms":…,"predicted_ms":…}); that format is
// never written. Appends are atomic at the frame level: a crash can tear at
// most the final record, and Open truncates such a tail — a bad frame that
// no intact frame follows. A bad frame with an intact one after it is
// corruption: Open refuses the file and leaves it as it found it. Replay
// re-verifies every CRC and validates every plan before handing it on.
type Log struct {
	mu  sync.Mutex
	f   *os.File
	buf []byte

	bytes     int64  // current log size (valid at Open + appended frames)
	appended  uint64 // records appended since Open
	truncated int64  // torn-tail bytes trimmed by Open
}

// LogStats is a point-in-time snapshot of the log counters.
type LogStats struct {
	Bytes     int64  `json:"bytes"`     // current on-disk size
	Appended  uint64 `json:"appended"`  // records appended since Open
	Truncated int64  `json:"truncated"` // torn-tail bytes trimmed at Open
}

const (
	frameHeader = 8          // payload length + CRC
	planMagic   = "\xda\xce" // opens every binary plan frame (plan.AppendBinaryFrameHeader)
	// maxRecordSize bounds one framed payload; a length field beyond it is
	// no frame (the serve layer caps request bodies well below this).
	maxRecordSize = 16 << 20
)

// readFrame returns the payload (aliasing *buf) of the frame at off in a
// file of size bytes, or why no intact frame starts there.
func readFrame(r io.ReaderAt, off, size int64, buf *[]byte) ([]byte, error) {
	var header [frameHeader]byte
	if _, err := r.ReadAt(header[:], off); err != nil {
		return nil, fmt.Errorf("torn frame header: %w", err)
	}
	n := int64(binary.LittleEndian.Uint32(header[0:4]))
	if n == 0 || n > maxRecordSize || off+frameHeader+n > size {
		return nil, fmt.Errorf("frame length %d out of range", n)
	}
	if int64(cap(*buf)) < n {
		*buf = make([]byte, n)
	}
	payload := (*buf)[:n]
	if _, err := r.ReadAt(payload, off+frameHeader); err != nil {
		return nil, err
	}
	if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(header[4:8]) {
		return nil, fmt.Errorf("checksum mismatch")
	}
	return payload, nil
}

// Open opens (creating if needed) the log at path, positioned for appends,
// after cutting off a torn tail. Corruption anywhere else is an error naming
// the record, and the file is not touched.
func Open(path string) (l *Log, err error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	defer func() {
		if err != nil {
			f.Close()
			err = fmt.Errorf("feedback: %s: %w", path, err)
		}
	}()
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	size, valid := fi.Size(), int64(0)
	var buf []byte
	for record := 0; valid < size; record++ {
		payload, bad := readFrame(f, valid, size, &buf)
		if bad == nil {
			valid += frameHeader + int64(len(payload))
			continue
		}
		// A crash tears one frame, so a torn tail is no longer than one and
		// holds no intact frame — at any offset: a corrupt length field hides
		// where the next frame starts.
		torn := size-valid <= frameHeader+maxRecordSize
		for o := valid + 1; torn && o < size; o++ {
			_, err := readFrame(f, o, size, &buf)
			torn = err != nil
		}
		if !torn {
			return nil, fmt.Errorf("record %d at offset %d is corrupt (%v) and the %d bytes from there on are not a torn tail; not truncating",
				record, valid, bad, size-valid)
		}
		break
	}
	if err := f.Truncate(valid); err != nil {
		return nil, fmt.Errorf("truncate torn tail: %w", err)
	}
	if _, err := f.Seek(valid, io.SeekStart); err != nil {
		return nil, err
	}
	return &Log{f: f, bytes: valid, truncated: size - valid}, nil
}

// Append frames and writes one sample; smp.Plan is read only during the
// call. The frame is assembled in one buffer and issued as a single Write,
// so concurrent appends never interleave and a crash tears at most the
// final frame.
func (l *Log) Append(smp Sample) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	b := append(l.buf[:0], make([]byte, frameHeader)...)
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(smp.ActualMS))
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(smp.PredictedMS))
	b, err := smp.Plan.AppendBinaryFrame(b)
	if err != nil {
		return fmt.Errorf("feedback: encode record: %w", err)
	}
	l.buf = b
	payload := b[frameHeader:]
	if len(payload) > maxRecordSize {
		return fmt.Errorf("feedback: record of %d bytes exceeds frame limit", len(payload))
	}
	binary.LittleEndian.PutUint32(b[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(b[4:8], crc32.ChecksumIEEE(payload))
	if _, err := l.f.Write(b); err != nil {
		return fmt.Errorf("feedback: append: %w", err)
	}
	l.bytes += int64(len(b))
	l.appended++
	return nil
}

// Stats snapshots the log counters.
func (l *Log) Stats() LogStats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return LogStats{Bytes: l.bytes, Appended: l.appended, Truncated: l.truncated}
}

// Replay reads every record from the start of the log in append order and
// hands it to fn; fn returning an error stops the replay. The sample's plan
// has passed Check and aliases the replay's decoder: fn copies what it keeps
// (Store.Add does). A frame that fails here was corrupted since Open, and a
// record whose plan is invalid was never one /feedback admitted: both are
// errors naming the record. Replay holds the log lock — call it before
// serving starts.
func (l *Log) Replay(fn func(Sample) error) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	var buf []byte
	var dec plan.Decoder
	count := 0
	for off := int64(0); off < l.bytes; count++ {
		payload, err := readFrame(l.f, off, l.bytes, &buf)
		var smp Sample
		if err == nil {
			smp, err = decodeRecord(&dec, payload)
		}
		if err != nil {
			return count, fmt.Errorf("feedback: replay: record %d at offset %d: %w", count, off, err)
		}
		if err := fn(smp); err != nil {
			return count, err
		}
		off += frameHeader + int64(len(payload))
	}
	return count, nil
}

// decodeRecord turns one CRC-verified payload into a sample whose plan
// aliases dec and has passed the request edge's validation.
func decodeRecord(dec *plan.Decoder, payload []byte) (smp Sample, err error) {
	if len(payload) > 18 && string(payload[16:18]) == planMagic {
		smp.ActualMS = math.Float64frombits(binary.LittleEndian.Uint64(payload[0:]))
		smp.PredictedMS = math.Float64frombits(binary.LittleEndian.Uint64(payload[8:]))
		smp.Plan, err = dec.DecodeBinary(payload[16:])
	} else {
		// The legacy payload: the envelope of a /feedback body, its plan
		// decoded by the decoder /feedback uses.
		var rec struct {
			Plan        json.RawMessage `json:"plan"`
			ActualMS    float64         `json:"actual_ms"`
			PredictedMS float64         `json:"predicted_ms"`
		}
		if err := json.Unmarshal(payload, &rec); err != nil {
			return smp, fmt.Errorf("neither a binary record nor a legacy JSON one: %w", err)
		}
		smp.ActualMS, smp.PredictedMS = rec.ActualMS, rec.PredictedMS
		smp.Plan, err = dec.Decode(rec.Plan)
	}
	if err == nil {
		err = smp.Plan.Check()
	}
	return smp, err
}

// Close flushes appended records to stable storage, then closes the
// underlying file, and returns the first error.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	err := l.f.Sync()
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	return err
}
