package telemetry

import (
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
	"sync"
)

// Label is one name="value" pair attached to a series. Label sets are fixed
// at registration: the hot path never renders, hashes, or looks up labels.
type Label struct {
	Name, Value string
}

// metricKind is a family's exposition TYPE.
type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// series is one label-set instance of a family. Exactly one of the value
// sources is set.
type series struct {
	labels string // pre-rendered {k="v",...}, or ""
	c      *Counter
	cf     func() uint64
	g      *Gauge
	gf     func() float64
	h      *Histogram
	les    []string // histogram only: pre-rendered le values
	bounds []float64
}

type family struct {
	name, help string
	kind       metricKind
	series     []*series
	byLabels   map[string]struct{}
}

// Registry is an ordered collection of metric families. Registration
// methods are safe for concurrent use but intended for wiring time; the
// instruments they return are the hot-path handles. A nil *Registry is
// inert: every Register call returns a working instrument that simply is
// not exported, so instrumented code never branches on "telemetry enabled".
type Registry struct {
	mu       sync.Mutex
	families []*family
	byName   map[string]*family
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*family)}
}

// Counter registers (or extends) the counter family name with one series
// for the given labels and returns its instrument.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	c := &Counter{}
	r.add(name, help, kindCounter, &series{c: c}, labels)
	return c
}

// CounterFunc registers a counter series whose value is sampled from fn at
// scrape time — the bridge to subsystems that already keep their own
// counters (servecache, the admission stage, the feedback store): exposing
// them costs their hot paths nothing.
func (r *Registry) CounterFunc(name, help string, fn func() uint64, labels ...Label) {
	r.add(name, help, kindCounter, &series{cf: fn}, labels)
}

// Gauge registers a gauge series and returns its instrument.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	g := &Gauge{}
	r.add(name, help, kindGauge, &series{g: g}, labels)
	return g
}

// GaugeFunc registers a gauge series sampled from fn at scrape time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	r.add(name, help, kindGauge, &series{gf: fn}, labels)
}

// Histogram registers a histogram series and returns its instrument. The
// internal bucket layout is the package-wide log-linear grid; bounds picks
// the (far coarser) subset of edges exported as Prometheus le buckets —
// power-of-two values sit exactly on internal edges, so their cumulative
// counts are exact. Every series of one family must use identical bounds.
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...Label) *Histogram {
	if len(bounds) == 0 {
		panic("telemetry: histogram " + name + " needs at least one exposition bound")
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic("telemetry: histogram " + name + " bounds must be strictly increasing")
		}
	}
	h := &Histogram{}
	les := make([]string, len(bounds))
	for i, b := range bounds {
		les[i] = formatFloat(b)
	}
	r.add(name, help, kindHistogram, &series{h: h, bounds: bounds, les: les}, labels)
	return h
}

// LatencyBounds is the exposition ladder for second-denominated latency
// histograms: every other power of two from ~1µs to ~67s. All edges are
// exact internal bucket boundaries.
func LatencyBounds() []float64 {
	out := make([]float64, 0, 14)
	for e := -20; e <= 6; e += 2 {
		out = append(out, math.Ldexp(1, e))
	}
	return out
}

// add registers one series, validating the metric name, the family's
// kind/help consistency, and label-set uniqueness. Violations panic: they
// are wiring-time programmer errors, not runtime conditions.
func (r *Registry) add(name, help string, kind metricKind, s *series, labels []Label) {
	if r == nil {
		return
	}
	if !validName(name) {
		panic("telemetry: invalid metric name " + strconv.Quote(name))
	}
	s.labels = renderLabels(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.byName[name]
	if f == nil {
		f = &family{name: name, help: help, kind: kind, byLabels: make(map[string]struct{})}
		r.byName[name] = f
		r.families = append(r.families, f)
	}
	if f.kind != kind {
		panic(fmt.Sprintf("telemetry: %s registered as both %s and %s", name, f.kind, kind))
	}
	if _, dup := f.byLabels[s.labels]; dup {
		panic(fmt.Sprintf("telemetry: duplicate series %s%s", name, s.labels))
	}
	if kind == kindHistogram && len(f.series) > 0 {
		prev := f.series[0]
		if len(prev.bounds) != len(s.bounds) {
			panic("telemetry: histogram " + name + " series disagree on bounds")
		}
		for i := range prev.bounds {
			if prev.bounds[i] != s.bounds[i] {
				panic("telemetry: histogram " + name + " series disagree on bounds")
			}
		}
	}
	f.byLabels[s.labels] = struct{}{}
	f.series = append(f.series, s)
}

func validName(name string) bool {
	if name == "" {
		return false
	}
	for i, c := range name {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// renderLabels pre-renders a label set as the exposition `{k="v",...}`
// fragment (empty string for no labels), escaping values per the text
// format.
func renderLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range labels {
		if !validName(l.Name) || strings.Contains(l.Name, ":") {
			panic("telemetry: invalid label name " + strconv.Quote(l.Name))
		}
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Name)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(l.Value))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

func escapeHelp(h string) string {
	if !strings.ContainsAny(h, "\\\n") {
		return h
	}
	r := strings.NewReplacer(`\`, `\\`, "\n", `\n`)
	return r.Replace(h)
}

// formatFloat renders a value the way the exposition format expects.
func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WritePrometheus encodes every family in registration order as Prometheus
// text exposition (version 0.0.4): # HELP and # TYPE headers followed by
// one line per series (per bucket for histograms). Scrape-time sampling of
// func-backed series happens here, outside any hot path.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	var b strings.Builder
	for _, f := range r.families {
		b.Reset()
		if f.help != "" {
			b.WriteString("# HELP ")
			b.WriteString(f.name)
			b.WriteByte(' ')
			b.WriteString(escapeHelp(f.help))
			b.WriteByte('\n')
		}
		b.WriteString("# TYPE ")
		b.WriteString(f.name)
		b.WriteByte(' ')
		b.WriteString(f.kind.String())
		b.WriteByte('\n')
		for _, s := range f.series {
			switch f.kind {
			case kindCounter:
				v := uint64(0)
				if s.c != nil {
					v = s.c.Load()
				} else {
					v = s.cf()
				}
				b.WriteString(f.name)
				b.WriteString(s.labels)
				b.WriteByte(' ')
				b.WriteString(strconv.FormatUint(v, 10))
				b.WriteByte('\n')
			case kindGauge:
				v := 0.0
				if s.g != nil {
					v = s.g.Load()
				} else {
					v = s.gf()
				}
				b.WriteString(f.name)
				b.WriteString(s.labels)
				b.WriteByte(' ')
				b.WriteString(formatFloat(v))
				b.WriteByte('\n')
			case kindHistogram:
				writeHistogram(&b, f.name, s)
			}
		}
		if _, err := io.WriteString(w, b.String()); err != nil {
			return err
		}
	}
	return nil
}

// writeHistogram renders one histogram series: cumulative _bucket lines for
// the exposition bounds plus le="+Inf", then _sum and _count.
func writeHistogram(b *strings.Builder, name string, s *series) {
	snap := s.h.Snapshot()
	leLabel := func(le string) {
		if s.labels == "" {
			b.WriteString(`{le="`)
		} else {
			b.WriteString(s.labels[:len(s.labels)-1])
			b.WriteString(`,le="`)
		}
		b.WriteString(le)
		b.WriteString(`"}`)
	}
	for i, bound := range s.bounds {
		b.WriteString(name)
		b.WriteString("_bucket")
		leLabel(s.les[i])
		b.WriteByte(' ')
		b.WriteString(strconv.FormatUint(snap.CumulativeLE(bound), 10))
		b.WriteByte('\n')
	}
	b.WriteString(name)
	b.WriteString("_bucket")
	leLabel("+Inf")
	b.WriteByte(' ')
	b.WriteString(strconv.FormatUint(snap.Count, 10))
	b.WriteByte('\n')
	b.WriteString(name)
	b.WriteString("_sum")
	b.WriteString(s.labels)
	b.WriteByte(' ')
	b.WriteString(formatFloat(snap.Sum))
	b.WriteByte('\n')
	b.WriteString(name)
	b.WriteString("_count")
	b.WriteString(s.labels)
	b.WriteByte(' ')
	b.WriteString(strconv.FormatUint(snap.Count, 10))
	b.WriteByte('\n')
}
