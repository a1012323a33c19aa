package feedback

import (
	"os"
	"path/filepath"
	"testing"
)

// FuzzLogReplay hands Open and Replay arbitrary bytes as a log file — what a
// crash, a bad disk or another program can leave at -feedback-log. Neither
// may panic; Open may shrink the file only when it accepts it (a refused log
// is left for the operator as it was found); and every sample Replay yields
// has passed plan.FlatPlan.Check, so it can be stored and featurized.
func FuzzLogReplay(f *testing.F) {
	var clean []byte
	for i := 0; i < 3; i++ {
		clean = append(clean, frameOf(binaryPayload(f, testPlan(i), float64(i+1), 1))...)
	}
	legacy, err := os.ReadFile(filepath.Join("testdata", "legacy_json.log"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add([]byte{})
	f.Add(clean)
	f.Add(legacy)
	for _, tail := range tornTails() {
		f.Add(append(append([]byte{}, clean...), tail...))
	}
	for _, bad := range invalidRecords(f) {
		f.Add(append(append([]byte{}, clean...), bad...))
		f.Add(append(append([]byte{}, bad...), clean...))
	}
	flipped := append([]byte{}, clean...)
	flipped[len(clean)/3+frameHeader+20] ^= 0x04 // mid-file corruption
	f.Add(flipped)

	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "feedback.log")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		l, err := Open(path)
		if err != nil {
			if after, _ := os.ReadFile(path); string(after) != string(data) {
				t.Fatalf("Open refused the log (%v) and changed it: %d → %d bytes", err, len(data), len(after))
			}
			return
		}
		defer l.Close()
		store := NewStore(4, 1)
		if _, err := l.Replay(func(s Sample) error {
			if err := s.Plan.Check(); err != nil {
				t.Fatalf("Replay yielded an invalid plan: %v", err)
			}
			store.Add(s)
			return nil
		}); err != nil {
			return
		}
		// What replays also accepts appends and replays again.
		if err := l.Append(Sample{Plan: testPlan(7), ActualMS: 1}); err != nil {
			t.Fatal(err)
		}
		if _, err := l.Replay(func(Sample) error { return nil }); err != nil {
			t.Fatalf("replay after append: %v", err)
		}
	})
}
