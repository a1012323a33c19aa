package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed interval. Spans of one request share Req; Parent is the
// index of the causing span in the trace (-1 for a root). N is how many
// calls of the layer's function the span covers (0 means 1): nanosecond
// functions are timed a batch at a time so the clock does not dominate, and
// a layer's per-call figure is self time / N.
//
// The system has no spans of its own yet, so every span here is recorded by
// the benchmark around a call into a layer's public API. A request's stage
// spans are replayed after its handler span ended; they are rebased to start
// at the handler's start, end to end, so that "handler minus children" is
// the time the handler spent in code the benchmark cannot call (queue wait,
// response encode, net/http) — an outside estimate, marked Replayed.
type span struct {
	Name     string `json:"name"`
	Start    int64  `json:"start_ns"`
	End      int64  `json:"end_ns"`
	Parent   int32  `json:"parent"`
	Req      int32  `json:"req"`
	N        int32  `json:"n,omitempty"`
	Replayed bool   `json:"replayed,omitempty"`
}

func (s span) calls() float64 {
	if s.N > 0 {
		return float64(s.N)
	}
	return 1
}

// trace collects spans in memory; nothing is written until the run ends.
type trace struct {
	epoch time.Time
	spans []span
	req   int32
}

// root times fn as a parentless span of a new request and returns its index.
func (t *trace) root(name string, n int, fn func()) int32 {
	t.req++
	t0 := time.Now()
	fn()
	t1 := time.Now()
	t.spans = append(t.spans, span{
		Name: name, Start: t0.Sub(t.epoch).Nanoseconds(), End: t1.Sub(t.epoch).Nanoseconds(),
		Parent: -1, Req: t.req, N: int32(n),
	})
	return int32(len(t.spans) - 1)
}

// child times reps runs of fn and records one of them as a replayed stage
// of parent, placed after the parent's earlier replayed children (cursor is
// the next free offset inside the parent and is advanced). reps > 1 is for
// functions about as fast as reading the clock: the request is charged the
// mean of reps runs.
func (t *trace) child(parent int32, cursor *int64, name string, n, reps int, fn func()) int32 {
	t0 := time.Now()
	for i := 0; i < reps; i++ {
		fn()
	}
	d := time.Since(t0).Nanoseconds() / int64(reps)
	p := t.spans[parent]
	t.spans = append(t.spans, span{
		Name: name, Start: p.Start + *cursor, End: p.Start + *cursor + d,
		Parent: parent, Req: p.Req, N: int32(n), Replayed: true,
	})
	*cursor += d
	return int32(len(t.spans) - 1)
}

// selfTimes returns, per span, its duration minus the part of its interval
// that its children cover. Children are clipped to the parent and
// overlapping children are counted once.
func selfTimes(spans []span) []int64 {
	kids := make(map[int32][]int32)
	for i, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], int32(i))
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.End - s.Start
		ks := kids[int32(i)]
		if len(ks) == 0 {
			continue
		}
		sort.Slice(ks, func(a, b int) bool { return spans[ks[a]].Start < spans[ks[b]].Start })
		covered, reach := int64(0), s.Start
		for _, k := range ks {
			lo, hi := max(spans[k].Start, reach), min(spans[k].End, s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[i] -= covered
	}
	return self
}

// layerTimes groups spans by name and returns the per-call self time and
// the per-call duration of each, in nanoseconds.
func layerTimes(spans []span) (self, total map[string][]float64) {
	self, total = map[string][]float64{}, map[string][]float64{}
	st := selfTimes(spans)
	for i, s := range spans {
		self[s.Name] = append(self[s.Name], float64(st[i])/s.calls())
		total[s.Name] = append(total[s.Name], float64(s.End-s.Start)/s.calls())
	}
	return self, total
}

// writeTrace writes one JSON object per span.
func writeTrace(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
