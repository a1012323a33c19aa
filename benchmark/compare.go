package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
	"sort"
)

// -compare applies BENCHMARK.json's bounds to two result sets (files of
// -out lines: a is the baseline, b the candidate) and prints one row per
// workload × end-to-end metric:
//
//	ok          b's median is no worse than a's by more than the bound
//	regressed   it is worse by more than the bound
//	unresolved  the run-to-run spread (interquartile distance / median) of
//	            either set is wider than the bound, so the runs cannot tell -
//	            unless every run of b reads better than every run of a
//	missing     the row exists in one set and not in the other, or in
//	            neither: a gate that skips what it cannot find compares
//	            nothing, which is how the old cmd/bench gate went vacuous
//
// Anything but ok everywhere (and zero failed operations) is a failure.

// resultSet is workload → metric → one value per run.
type resultSet struct {
	values map[string]map[string][]float64
	failed map[string]int
}

func loadResults(path string) (*resultSet, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	rs := &resultSet{values: map[string]map[string][]float64{}, failed: map[string]int{}}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 16<<20)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r result
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		if r.Trace {
			continue // traced runs carry overhead; they are never compared
		}
		m := rs.values[r.Workload]
		if m == nil {
			m = map[string][]float64{}
			rs.values[r.Workload] = m
		}
		for name, v := range r.Values {
			m[name] = append(m[name], v.Value)
		}
		rs.failed[r.Workload] += r.Failed
	}
	return rs, sc.Err()
}

// worseBy is how much worse b's median is than a's, as a share of a's, in
// the metric's own direction (negative: b is better).
func worseBy(d metricDef, a, b float64) float64 {
	if a == 0 {
		if a == b {
			return 0
		}
		return 1
	}
	if d.Better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// allBetter reports whether every run of b reads strictly better than every
// run of a.
func allBetter(d metricDef, a, b []float64) bool {
	if d.Better == "higher" {
		return slices.Min(b) > slices.Max(a)
	}
	return slices.Max(b) < slices.Min(a)
}

// judge returns the verdict for one workload × metric.
func judge(d metricDef, a, b []float64) (verdict string, detail string) {
	if len(a) == 0 || len(b) == 0 {
		return "missing", fmt.Sprintf("runs: a=%d b=%d", len(a), len(b))
	}
	ma, mb := median(a), median(b)
	w := worseBy(d, ma, mb)
	sa, oka := spread(a)
	sb, okb := spread(b)
	detail = fmt.Sprintf("a=%.6g b=%.6g worse=%+.2f%% spread a=%.2f%% b=%.2f%% bound=%.2f%%",
		ma, mb, 100*w, 100*sa, 100*sb, 100*d.Bound)
	if !oka || !okb {
		// A single run per side has no spread; judge the medians alone.
		if w > d.Bound {
			return "regressed", detail
		}
		return "ok", detail
	}
	if max(sa, sb) > d.Bound && !allBetter(d, a, b) {
		return "unresolved", detail
	}
	if w > d.Bound {
		return "regressed", detail
	}
	return "ok", detail
}

// compareSets prints the comparison and reports whether every row is ok.
func compareSets(out io.Writer, spec *benchSpec, a, b *resultSet) bool {
	allOK := true
	// Every workload the spec names must be in both sets; a workload only
	// the files know is reported too.
	names := map[string]bool{}
	var order []string
	add := func(n string) {
		if !names[n] {
			names[n] = true
			order = append(order, n)
		}
	}
	for _, w := range spec.Workloads {
		add(w.Name)
	}
	for _, rs := range []*resultSet{a, b} {
		extra := make([]string, 0, len(rs.values))
		for n := range rs.values {
			extra = append(extra, n)
		}
		sort.Strings(extra)
		for _, n := range extra {
			add(n)
		}
	}
	for _, w := range order {
		for _, d := range spec.EndToEnd {
			v, detail := judge(d, a.values[w][d.Name], b.values[w][d.Name])
			if v != "ok" {
				allOK = false
			}
			fmt.Fprintf(out, "%-12s %-18s %-10s %s\n", w, d.Name, v, detail)
		}
		if fa, fb := a.failed[w], b.failed[w]; fa+fb > 0 {
			allOK = false
			fmt.Fprintf(out, "%-12s %-18s %-10s failed operations: a=%d b=%d\n", w, "failed_ops", "regressed", fa, fb)
		}
	}
	return allOK
}
