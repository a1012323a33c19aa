package feedback

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dace/internal/plan"
)

func appendN(t *testing.T, l *Log, from, n int) {
	t.Helper()
	for i := from; i < from+n; i++ {
		if err := l.Append(Sample{Plan: testPlan(i), ActualMS: float64(i + 1), PredictedMS: float64(i + 2)}); err != nil {
			t.Fatal(err)
		}
	}
}

func replayAll(t *testing.T, l *Log) []Sample {
	t.Helper()
	var out []Sample
	n, err := l.Replay(func(s Sample) error {
		if err := s.Plan.Check(); err != nil {
			t.Errorf("replay yielded an unchecked plan: %v", err)
		}
		s.Plan = s.Plan.Clone() // the replayed plan aliases the replay's decoder
		out = append(out, s)
		return nil
	})
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if n != len(out) {
		t.Fatalf("replay count %d vs %d samples", n, len(out))
	}
	return out
}

func TestLogRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "feedback.log")
	l, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 0, 10)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	got := replayAll(t, l2)
	if len(got) != 10 {
		t.Fatalf("replayed %d records, want 10", len(got))
	}
	for i, s := range got {
		if s.ActualMS != float64(i+1) || s.PredictedMS != float64(i+2) {
			t.Fatalf("record %d latencies %v/%v", i, s.ActualMS, s.PredictedMS)
		}
		if s.Plan.Fingerprint != testPlan(i).Fingerprint {
			t.Fatalf("record %d plan lost its identity", i)
		}
	}
}

// TestLogRecoversFromTornTail simulates a crash mid-append: raw garbage
// after the last intact frame must be truncated on Open, the intact prefix
// must replay losslessly, and the log must accept appends again.
func TestLogRecoversFromTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "feedback.log")
	l, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 0, 5)
	l.Close()
	intact, _ := os.Stat(path)

	for name, tail := range tornTails() {
		f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
		if err != nil {
			t.Fatal(err)
		}
		f.Write(tail)
		f.Close()

		l2, err := Open(path)
		if err != nil {
			t.Fatalf("%s: reopen: %v", name, err)
		}
		if got := replayAll(t, l2); len(got) != 5 {
			t.Fatalf("%s: replayed %d records, want 5", name, len(got))
		}
		if st, _ := os.Stat(path); st.Size() != intact.Size() {
			t.Fatalf("%s: tail not truncated (%d vs %d bytes)", name, st.Size(), intact.Size())
		}
		// The repaired log accepts appends and replays them.
		appendN(t, l2, 5, 1)
		if got := replayAll(t, l2); len(got) != 6 {
			t.Fatalf("%s: post-recovery append lost", name)
		}
		l2.Close()
		// Restore the 5-record file for the next case.
		if err := os.Truncate(path, intact.Size()); err != nil {
			t.Fatal(err)
		}
	}
}

// tornTails are the shapes a crash mid-append leaves after the last intact
// frame; FuzzLogReplay seeds from them too.
func tornTails() map[string][]byte {
	return map[string][]byte{
		"short header":  {0x01, 0x02, 0x03},
		"torn payload":  append(binary.LittleEndian.AppendUint32(binary.LittleEndian.AppendUint32(nil, 500), 0xdeadbeef), []byte("partial")...),
		"absurd length": binary.LittleEndian.AppendUint32(binary.LittleEndian.AppendUint32(nil, 1<<30), 0),
		"zero length":   make([]byte, 16),
		"crc mismatch":  crcMismatchFrame(),
	}
}

// crcMismatchFrame is a structurally valid frame whose checksum is wrong.
func crcMismatchFrame() []byte {
	payload := []byte(`{"actual_ms":1}`)
	frame := binary.LittleEndian.AppendUint32(nil, uint32(len(payload)))
	frame = binary.LittleEndian.AppendUint32(frame, 0x12345678) // not the CRC
	return append(frame, payload...)
}

// frameOf wraps payload in a frame whose length and checksum are right.
func frameOf(payload []byte) []byte {
	frame := binary.LittleEndian.AppendUint32(nil, uint32(len(payload)))
	frame = binary.LittleEndian.AppendUint32(frame, crc32.ChecksumIEEE(payload))
	return append(frame, payload...)
}

// binaryPayload is the current record payload for f, written out by hand so
// the tests pin the layout: actual, predicted, binary plan frame.
func binaryPayload(t testing.TB, f *plan.FlatPlan, actualMS, predictedMS float64) []byte {
	t.Helper()
	b := binary.LittleEndian.AppendUint64(nil, math.Float64bits(actualMS))
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(predictedMS))
	b, err := f.AppendBinaryFrame(b)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// invalidRecords are CRC-valid frames no /feedback request could have put in
// the log: at the parent commit the first is admitted and later panics the
// featurizer, the second nil-dereferences inside Store.Add, and a NaN
// feature would poison a fine-tune.
func invalidRecords(t testing.TB) map[string][]byte {
	nan := testPlan(1)
	nan.EstRows[0] = math.NaN()
	badType := binaryPayload(t, testPlan(2), 5, 1)
	badType[len(badType)-34] = 99 // the one node's type byte
	return map[string][]byte{
		"legacy out-of-range type": frameOf([]byte(`{"plan":{"database":"t","root":{"type":99,"est_rows":1,"est_cost":1}},"actual_ms":5}`)),
		"legacy null child":        frameOf([]byte(`{"plan":{"database":"t","root":{"type":0,"est_rows":1,"est_cost":1,"children":[null]}},"actual_ms":5}`)),
		"binary non-finite":        frameOf(binaryPayload(t, nan, 5, 1)),
		"binary out-of-range type": frameOf(badType),
		"neither format":           frameOf([]byte("hello, log")),
	}
}

// TestReplayRejectsInvalidRecord: a well-framed record whose plan is invalid
// is a Replay error naming it, and it never reaches the callback (so never
// Store.Add, never a fine-tune).
func TestReplayRejectsInvalidRecord(t *testing.T) {
	for name, bad := range invalidRecords(t) {
		path := filepath.Join(t.TempDir(), "feedback.log")
		l, err := Open(path)
		if err != nil {
			t.Fatal(err)
		}
		appendN(t, l, 0, 2)
		l.Close()
		f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
		if err != nil {
			t.Fatal(err)
		}
		f.Write(bad)
		f.Close()

		l2, err := Open(path) // the frame is intact: nothing to repair
		if err != nil {
			t.Fatalf("%s: open: %v", name, err)
		}
		store := NewStore(8, 1)
		n, err := l2.Replay(func(s Sample) error { store.Add(s); return nil })
		l2.Close()
		if err == nil || !strings.Contains(err.Error(), "record 2") {
			t.Fatalf("%s: replay error %v, want one naming record 2", name, err)
		}
		if n != 2 || store.Len() != 2 {
			t.Fatalf("%s: %d records replayed, %d resident, want the 2 valid ones", name, n, store.Len())
		}
	}
}

// legacyFixture is what testdata/legacy_json.log holds: seven records written
// by the last build whose payload was JSON (six airline plans with SQL and
// Meta, the second observed twice, the third without predicted_ms), as that
// build's Plan.Fingerprint and latencies printed them.
var legacyFixture = []struct {
	fp                    string
	actualMS, predictedMS float64
}{
	{"bf8131b31f82c880a84233fd6a4cc49f", 51.762216197981004, 25.881108098990502},
	{"3098cdba0c8ceff3bad729182471bdff", 6.304573356670297, 3.1522866783351486},
	{"3098cdba0c8ceff3bad729182471bdff", 12.609146713340594, 3.1522866783351486},
	{"919af90fee6a6df0ce498ca4b9cd20d4", 16.259487565290172, 0},
	{"860f80f26e71e629fcbeeb8e7400375f", 93.0923109386612, 46.5461554693306},
	{"a777bbf64f6f3f7880107e9be03125c0", 7.1397393076864155, 3.5698696538432078},
	{"075175e2c562dc3aa4e68bbfcc7b701d", 6.6251475869343315, 3.3125737934671657},
}

// TestLegacyJSONLogReplays: a log in the JSON payload format replays to the
// fingerprints, labels and order it was written with, its binary rewrite
// replays to the same samples, and what is appended after it is binary.
func TestLegacyJSONLogReplays(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "legacy_json.log"))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	legacyPath, rewritePath := filepath.Join(dir, "legacy.log"), filepath.Join(dir, "rewrite.log")
	if err := os.WriteFile(legacyPath, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	legacy, err := Open(legacyPath)
	if err != nil {
		t.Fatal(err)
	}
	defer legacy.Close()
	got := replayAll(t, legacy)
	if len(got) != len(legacyFixture) {
		t.Fatalf("replayed %d records, want %d", len(got), len(legacyFixture))
	}
	for i, want := range legacyFixture {
		if fp := fmt.Sprint(got[i].Plan.Fingerprint); fp != want.fp || got[i].ActualMS != want.actualMS || got[i].PredictedMS != want.predictedMS {
			t.Fatalf("record %d: %s %v/%v, want %+v", i, fp, got[i].ActualMS, got[i].PredictedMS, want)
		}
	}

	rewrite, err := Open(rewritePath)
	if err != nil {
		t.Fatal(err)
	}
	defer rewrite.Close()
	for _, s := range got {
		if err := rewrite.Append(s); err != nil {
			t.Fatal(err)
		}
	}
	if rs, ls := rewrite.Stats().Bytes, legacy.Stats().Bytes; rs >= ls/2 {
		t.Fatalf("binary rewrite is %d bytes against %d as JSON", rs, ls)
	}
	// Same store contents either way: slot order, labels, node arrays.
	a, b := NewStore(4, 1), NewStore(4, 1)
	for _, s := range got {
		a.Add(s)
	}
	for _, s := range replayAll(t, rewrite) {
		b.Add(s)
	}
	sa, sb := a.Snapshot(), b.Snapshot()
	if len(sa) != 4 || len(sb) != 4 || a.Stats() != b.Stats() {
		t.Fatalf("stores diverge: %+v vs %+v", a.Stats(), b.Stats())
	}
	for i := range sa {
		x, y := sa[i].Plan, sb[i].Plan
		if x.Fingerprint != y.Fingerprint || sa[i].ActualMS != sb[i].ActualMS || x.ActualMS[0] != sa[i].ActualMS ||
			fmt.Sprint(x.Types, x.ChildCount, x.EstRows, x.EstCost, x.ActualRows, x.ActualMS, x.Heights, x.Subtree) !=
				fmt.Sprint(y.Types, y.ChildCount, y.EstRows, y.EstCost, y.ActualRows, y.ActualMS, y.Heights, y.Subtree) {
			t.Fatalf("slot %d differs between the JSON log and its binary rewrite", i)
		}
	}

	// An append after legacy records is a binary record, and both replay.
	appendN(t, legacy, 100, 1)
	if all := replayAll(t, legacy); len(all) != len(legacyFixture)+1 || all[len(all)-1].Plan.Fingerprint != testPlan(100).Fingerprint {
		t.Fatalf("mixed log replayed %d records", len(all))
	}
	mixed, err := os.ReadFile(legacyPath)
	if err != nil {
		t.Fatal(err)
	}
	if tail := mixed[len(raw):]; !bytes.Equal(tail, frameOf(binaryPayload(t, testPlan(100), 101, 102))) {
		t.Fatalf("appended record is not [len][crc][actual][predicted][plan frame]: % x", tail)
	}
}

// TestMidFileCorruptionIsAnError: a bad frame with intact frames after it is
// not a torn tail. Open must say which record, and must not cut the log.
func TestMidFileCorruptionIsAnError(t *testing.T) {
	path := filepath.Join(t.TempDir(), "feedback.log")
	l, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 0, 10)
	l.Close()
	clean, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	recordSize := len(clean) / 10
	for name, at := range map[string]int{
		"payload bit": 2*recordSize + frameHeader + 20,
		"length bit":  2 * recordSize,
		"crc bit":     2*recordSize + 5,
	} {
		bad := bytes.Clone(clean)
		bad[at] ^= 0x04
		if err := os.WriteFile(path, bad, 0o644); err != nil {
			t.Fatal(err)
		}
		l, err := Open(path)
		if err == nil {
			l.Close()
			t.Fatalf("%s flipped in record 3 of 10: Open succeeded", name)
		}
		if msg := err.Error(); !strings.Contains(msg, "record 2") || !strings.Contains(msg, fmt.Sprintf("offset %d", 2*recordSize)) {
			t.Fatalf("%s: error does not name the record and its offset: %v", name, err)
		}
		if after, _ := os.ReadFile(path); !bytes.Equal(after, bad) {
			t.Fatalf("%s: Open changed a file it refused (%d → %d bytes)", name, len(bad), len(after))
		}
	}
	// The same flip in the last record is a torn tail again.
	bad := bytes.Clone(clean)
	bad[9*recordSize+frameHeader+20] ^= 0x04
	if err := os.WriteFile(path, bad, 0o644); err != nil {
		t.Fatal(err)
	}
	l, err = Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if got := replayAll(t, l); len(got) != 9 || l.Stats().Truncated != int64(recordSize) {
		t.Fatalf("torn last record: %d replayed, %d bytes trimmed", len(got), l.Stats().Truncated)
	}
}

func TestLogOpenCreatesEmpty(t *testing.T) {
	path := filepath.Join(t.TempDir(), "new.log")
	l, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := replayAll(t, l); len(got) != 0 {
		t.Fatalf("fresh log replayed %d records", len(got))
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}
