package plan

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// checkFlatMatchesPlan asserts that a streaming decode produced exactly
// what the reflection path sees: same DFS node sequence, features (bitwise,
// so -0 vs 0 counts as a difference), shape arrays, database, and
// fingerprint.
func checkFlatMatchesPlan(t *testing.T, f *FlatPlan, p *Plan) {
	t.Helper()
	nodes := p.AppendDFS(nil)
	if f.Len() != len(nodes) {
		t.Fatalf("flat has %d nodes, tree has %d", f.Len(), len(nodes))
	}
	heights := p.AppendHeights(nil)
	sizes := p.AppendSubtreeSizes(nil)
	for i, n := range nodes {
		if f.Types[i] != n.Type {
			t.Fatalf("node %d: type %d vs %d", i, f.Types[i], n.Type)
		}
		if int(f.ChildCount[i]) != len(n.Children) {
			t.Fatalf("node %d: child count %d vs %d", i, f.ChildCount[i], len(n.Children))
		}
		pairs := [...][2]float64{
			{f.EstRows[i], n.EstRows}, {f.EstCost[i], n.EstCost},
			{f.ActualRows[i], n.ActualRows}, {f.ActualMS[i], n.ActualMS},
		}
		for _, pr := range pairs {
			if math.Float64bits(pr[0]) != math.Float64bits(pr[1]) {
				t.Fatalf("node %d: feature %x vs %x", i, math.Float64bits(pr[0]), math.Float64bits(pr[1]))
			}
		}
		if int(f.Heights[i]) != heights[i] {
			t.Fatalf("node %d: height %d vs %d", i, f.Heights[i], heights[i])
		}
		if int(f.Subtree[i]) != sizes[i] {
			t.Fatalf("node %d: subtree %d vs %d", i, f.Subtree[i], sizes[i])
		}
	}
	if f.Database() != p.Database {
		t.Fatalf("database %q vs %q", f.Database(), p.Database)
	}
	if f.Fingerprint != p.Fingerprint() {
		t.Fatalf("fingerprint %s vs %s", f.Fingerprint, p.Fingerprint())
	}
}

// checkFlatsEqual asserts two flat plans agree in every array (bitwise for
// the features) and in the fingerprint.
func checkFlatsEqual(t *testing.T, got, want *FlatPlan) {
	t.Helper()
	if got.Len() != want.Len() || got.Fingerprint != want.Fingerprint {
		t.Fatalf("flat plans differ: %d nodes/%s vs %d nodes/%s", got.Len(), got.Fingerprint, want.Len(), want.Fingerprint)
	}
	for i := range want.Types {
		if got.Types[i] != want.Types[i] || got.ChildCount[i] != want.ChildCount[i] ||
			got.Heights[i] != want.Heights[i] || got.Subtree[i] != want.Subtree[i] {
			t.Fatalf("node %d: shape (%d,%d,%d,%d) vs (%d,%d,%d,%d)", i,
				got.Types[i], got.ChildCount[i], got.Heights[i], got.Subtree[i],
				want.Types[i], want.ChildCount[i], want.Heights[i], want.Subtree[i])
		}
		pairs := [...][2]float64{
			{got.EstRows[i], want.EstRows[i]}, {got.EstCost[i], want.EstCost[i]},
			{got.ActualRows[i], want.ActualRows[i]}, {got.ActualMS[i], want.ActualMS[i]},
		}
		for _, pr := range pairs {
			if math.Float64bits(pr[0]) != math.Float64bits(pr[1]) {
				t.Fatalf("node %d: feature %x vs %x", i, math.Float64bits(pr[0]), math.Float64bits(pr[1]))
			}
		}
	}
}

// corpusDocs loads every committed FuzzFingerprint seed (go-fuzz corpus
// format: one quoted string per file) so the differential tests cover the
// same documents the fingerprint fuzzer was seeded with.
func corpusDocs(t *testing.T) []string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join("testdata", "fuzz", "FuzzFingerprint", "*"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no fuzz seed corpus found: %v", err)
	}
	var docs []string
	for _, file := range files {
		raw, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(string(raw), "\n") {
			line = strings.TrimSpace(line)
			if !strings.HasPrefix(line, "string(") || !strings.HasSuffix(line, ")") {
				continue
			}
			doc, err := strconv.Unquote(line[len("string(") : len(line)-1])
			if err != nil {
				t.Fatalf("%s: %v", file, err)
			}
			docs = append(docs, doc)
		}
	}
	if len(docs) == 0 {
		t.Fatal("fuzz seed corpus contained no documents")
	}
	return docs
}

// decoderDocs is the hand-picked differential suite: documents that probe
// the encoding/json semantics the streaming decoder re-implements.
func decoderDocs(t *testing.T) []string {
	var sample bytes.Buffer
	if err := samplePlan().WriteJSON(&sample); err != nil {
		t.Fatal(err)
	}
	docs := []string{
		sample.String(),
		`null`,
		`{}`,
		`{"root":null}`,
		`{"database":"d","root":{"type":0,"est_rows":10,"est_cost":3.5}}`,
		// Case-insensitive key matching, encoding/json style.
		`{"DataBase":"d","ROOT":{"TYPE":3,"Est_Rows":1,"EST_COST":2,"Children":[{"type":4}]}}`,
		// Escaped keys and values, unicode, unknown fields.
		`{"database":"dé\t\"x\"","sql":"select ☃","root":{"type":7,"extra":[1,{"a":"b"}],"est_rows":2,"children":[{"type":0},{"type":1}]}}`,
		// Duplicate scalar fields: last value wins.
		`{"root":{"type":1,"type":2,"est_rows":5,"est_rows":6.5}}`,
		// Null field values are no-ops.
		`{"database":null,"sql":null,"root":{"type":3,"est_rows":null,"children":[{"type":9,"children":[{"type":0}]}]}}`,
		// Number edge cases: exponents, negative zero, underflow-to-zero,
		// full float64 precision, int-typed type field boundaries.
		`{"root":{"type":15,"est_rows":-0,"est_cost":1e-320,"actual_rows":1E5,"actual_ms":1e-999}}`,
		`{"root":{"type":-3,"est_rows":0.30000000000000004,"est_cost":9007199254740993}}`,
		`{"root":{"type":9223372036854775807,"est_cost":1.7976931348623157e308}}`,
		// Meta objects are skipped but validated.
		`{"root":{"type":0,"est_rows":4,"meta":{"table":"t","filters":[{"column":"c","op":"=","value":3}]}}}`,
		// Whitespace everywhere; trailing bytes ignored (Decoder semantics).
		"  {\t\"root\" : { \"type\" :\n2 } }  trailing garbage",
	}
	return append(docs, corpusDocs(t)...)
}

func TestDecoderMatchesReadJSON(t *testing.T) {
	var dec Decoder
	for _, doc := range decoderDocs(t) {
		f, err := dec.Decode([]byte(doc))
		if err != nil {
			t.Fatalf("stream decode %q: %v", doc, err)
		}
		p, err := ReadJSON(strings.NewReader(doc))
		if err != nil {
			t.Fatalf("ReadJSON %q: %v", doc, err)
		}
		checkFlatMatchesPlan(t, f, p)
	}
}

// TestDecoderRejects pins the decoder's error behaviour: everything
// encoding/json rejects must be rejected, plus the two deliberate
// strictness points (duplicate children/root, null child nodes) where
// encoding/json would silently build a tree the flat arenas cannot
// represent (or that crashes downstream traversals).
func TestDecoderRejects(t *testing.T) {
	var dec Decoder
	for _, doc := range []string{
		``, `{`, `[1,2]`, `"x"`, `5`, `true`,
		`{"root":5}`, `{"root":[]}`, `{"root":"x"}`,
		`{"root":{,}}`, `{"root":{}`, `{"root":{"type":}}`,
		`{"root":{"type":01}}`, `{"root":{"type":1.}}`, `{"root":{"type":+1}}`,
		`{"root":{"type":3.5}}`, `{"root":{"est_rows":1e999}}`,
		`{"root":{"est_rows":--1}}`, `{"root":{"est_rows":1e}}`,
		`{"database":5}`, `{"database":"` + "\x01" + `"}`,
		`{"root":{"children":{}}}`, `{"root":{"children":[{}],}}`,
		`{"sql":"\x"}`, `{"sql":"\u12"}`, `{"meta":{"a":nul}}`,
		`{"root":{"type":1,} }`,
		// Stream-stricter cases.
		`{"root":{},"root":{}}`,
		`{"root":{"children":[{}],"children":[{}]}}`,
		`{"root":{"children":[null]}}`,
	} {
		if _, err := dec.Decode([]byte(doc)); err == nil {
			t.Fatalf("stream decode accepted %q", doc)
		}
	}
}

// FuzzStreamDecode is the differential fuzzer: any document the streaming
// decoder accepts must also be accepted by encoding/json and produce the
// identical flat representation. (The converse is not required — the
// decoder is stricter about duplicate children and null child nodes.)
func FuzzStreamDecode(f *testing.F) {
	var sample bytes.Buffer
	samplePlan().WriteJSON(&sample)
	f.Add(sample.String())
	f.Add(`{"DataBase":"dé","root":{"TYPE":3,"est_rows":1e-3,"children":[{"type":4,"meta":{"k":[1,true,null]}}]}}`)
	f.Add(`{"root":{"type":1,"type":2,"est_rows":5,"est_rows":-0}}`)
	f.Add(`{"root":{"children":[{"type":0},{"type":1,"children":[{"type":2}]}]}}`)
	f.Fuzz(func(t *testing.T, doc string) {
		var dec Decoder
		flat, err := dec.Decode([]byte(doc))
		if err != nil {
			return
		}
		p, jerr := ReadJSON(strings.NewReader(doc))
		if jerr != nil {
			t.Fatalf("stream accepted but ReadJSON rejected %q: %v", doc, jerr)
		}
		checkFlatMatchesPlan(t, flat, p)
		// The tree → flat conversion is a third route to the same arrays and
		// fingerprint, and inverts Tree().
		var conv FlatPlan
		checkFlatMatchesPlan(t, conv.FromTree(p), p)
		checkFlatsEqual(t, new(FlatPlan).FromTree(flat.Tree()), flat)
		// Determinism: a second decode of the same bytes is identical.
		fp := flat.Fingerprint
		flat2, err := dec.Decode([]byte(doc))
		if err != nil || flat2.Fingerprint != fp {
			t.Fatalf("re-decode diverged: %v", err)
		}
	})
}

// TestDecoderZeroAlloc guards the tentpole property: once warm, a decode
// performs zero allocations.
func TestDecoderZeroAlloc(t *testing.T) {
	var sample bytes.Buffer
	if err := samplePlan().WriteJSON(&sample); err != nil {
		t.Fatal(err)
	}
	body := sample.Bytes()
	var dec Decoder
	if _, err := dec.Decode(body); err != nil {
		t.Fatal(err)
	}
	if avg := testing.AllocsPerRun(100, func() {
		if _, err := dec.Decode(body); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Fatalf("Decode allocates %.1f/op at steady state, want 0", avg)
	}
}

// TestDecoderConcurrentReuse hammers a pool of decoders from many
// goroutines (the serving pattern) and checks every result — run under
// -race this doubles as the decoder's data-race coverage.
func TestDecoderConcurrentReuse(t *testing.T) {
	docs := decoderDocs(t)
	type want struct {
		fp Fingerprint
		n  int
	}
	wants := make([]want, len(docs))
	for i, doc := range docs {
		p, err := ReadJSON(strings.NewReader(doc))
		if err != nil {
			t.Fatal(err)
		}
		wants[i] = want{fp: p.Fingerprint(), n: p.NodeCount()}
	}
	pool := sync.Pool{New: func() any { return new(Decoder) }}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for iter := 0; iter < 200; iter++ {
				i := (g + iter) % len(docs)
				dec := pool.Get().(*Decoder)
				f, err := dec.Decode([]byte(docs[i]))
				if err == nil && (f.Fingerprint != wants[i].fp || f.Len() != wants[i].n) {
					err = fmt.Errorf("doc %d: got %s/%d nodes, want %s/%d",
						i, f.Fingerprint, f.Len(), wants[i].fp, wants[i].n)
				}
				pool.Put(dec)
				if err != nil {
					select {
					case errs <- err:
					default:
					}
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	if err := <-errs; err != nil {
		t.Fatal(err)
	}
}

// TestFlatTreeRoundTrip materializes trees from flat decodes and checks
// they fingerprint identically and flatten back (FromTree) to the same
// arrays — and that a FlatBatch hands every appended plan back unchanged
// after the decoder that produced it has moved on.
func TestFlatTreeRoundTrip(t *testing.T) {
	var dec Decoder
	var batch FlatBatch
	var copies []*FlatPlan
	for _, doc := range decoderDocs(t) {
		f, err := dec.Decode([]byte(doc))
		if err != nil {
			t.Fatal(err)
		}
		p := f.Tree()
		back := new(FlatPlan).FromTree(p)
		checkFlatsEqual(t, back, f)
		batch.Append(f)
		copies = append(copies, back)
		if (p.Root == nil) != (f.Len() == 0) {
			t.Fatalf("Tree root nil-ness mismatch for %q", doc)
		}
		if got := p.Fingerprint(); got != f.Fingerprint {
			t.Fatalf("Tree fingerprint %s, want %s", got, f.Fingerprint)
		}
		if p.Database != f.Database() {
			t.Fatalf("Tree database %q, want %q", p.Database, f.Database())
		}
	}
	if batch.Len() != len(copies) {
		t.Fatalf("batch holds %d plans, want %d", batch.Len(), len(copies))
	}
	for i, want := range copies {
		got := batch.At(i)
		checkFlatsEqual(t, &got, want)
	}
	if batch.Reset(); batch.Len() != 0 {
		t.Fatal("Reset left plans in the batch")
	}
}
