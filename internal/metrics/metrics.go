// Package metrics is a zero-dependency, Prometheus-compatible metrics
// registry for the serving stack: counters, gauges and histograms (plain
// or labeled), exposed in the Prometheus text exposition format v0.0.4
// via Registry.WriteText / Registry.Handler.
//
// Two design points matter for correctness of the observability story:
//
//   - Series can be *function-backed* (CounterVec.Func, GaugeVec.Func,
//     Registry.GaugeFunc): the sample value is read from an existing
//     source of truth at scrape time. The serving layer backs its
//     admission counters and occupancy gauges with the very atomics that
//     feed GET /v1/stats, so the two views can never disagree.
//
//   - All mutating operations (Counter.Add, Gauge.Set, Histogram.Observe)
//     are lock-free atomics, cheap enough to sit on the request hot path.
//
// Metric and label names are validated eagerly; constructing a metric
// with an invalid or duplicate name panics, because that is a programming
// error (mirroring prometheus.MustRegister).
package metrics

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// DefBuckets returns the default latency histogram bucket upper bounds in
// seconds (the Prometheus client defaults): 5 ms .. 10 s.
func DefBuckets() []float64 {
	return []float64{.005, .01, .025, .05, .1, .25, .5, 1, 2.5, 5, 10}
}

// kind discriminates metric families for TYPE lines and rendering.
type kind int

const (
	counterKind kind = iota
	gaugeKind
	histogramKind
)

func (k kind) String() string {
	switch k {
	case counterKind:
		return "counter"
	case gaugeKind:
		return "gauge"
	default:
		return "histogram"
	}
}

// Registry holds metric families and renders them as one exposition page.
// The zero value is not usable; construct with NewRegistry. All methods
// are safe for concurrent use.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// family is one metric family: a name, HELP text, TYPE, declared label
// keys, and the labeled series created so far.
type family struct {
	name    string
	help    string
	kind    kind
	labels  []string
	buckets []float64 // histogram families only

	mu     sync.Mutex
	series map[string]*series
}

// series is one labeled sample stream within a family. Exactly one of
// {counter, gauge, histogram, fn} is set.
type series struct {
	labelValues []string
	counter     *Counter
	gauge       *Gauge
	histogram   *Histogram
	fn          func() float64
}

// value reads a scalar series' current sample.
func (s *series) value() float64 {
	switch {
	case s.fn != nil:
		return s.fn()
	case s.counter != nil:
		return s.counter.Value()
	default:
		return s.gauge.Value()
	}
}

// validName reports whether name is a legal Prometheus metric name
// ([a-zA-Z_:][a-zA-Z0-9_:]*).
func validName(name string) bool {
	if name == "" {
		return false
	}
	for i, c := range name {
		ok := c == '_' || c == ':' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(i > 0 && c >= '0' && c <= '9')
		if !ok {
			return false
		}
	}
	return true
}

// validLabel reports whether name is a legal label name
// ([a-zA-Z_][a-zA-Z0-9_]*; no colons).
func validLabel(name string) bool {
	if name == "" {
		return false
	}
	for i, c := range name {
		ok := c == '_' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(i > 0 && c >= '0' && c <= '9')
		if !ok {
			return false
		}
	}
	return true
}

// newFamily registers a family, panicking on invalid or duplicate names —
// both are programming errors, caught by any test that constructs the
// instrumented component.
func (r *Registry) newFamily(name, help string, k kind, buckets []float64, labels ...string) *family {
	if !validName(name) {
		panic("metrics: invalid metric name " + name)
	}
	for _, l := range labels {
		if !validLabel(l) {
			panic("metrics: invalid label name " + l + " on " + name)
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.families[name]; ok {
		panic("metrics: duplicate metric name " + name)
	}
	f := &family{
		name:    name,
		help:    help,
		kind:    k,
		labels:  labels,
		buckets: buckets,
		series:  make(map[string]*series),
	}
	r.families[name] = f
	return f
}

// seriesKey joins label values into a map key. 0x1f (unit separator)
// cannot be confused with printable label values in practice; collisions
// would only merge series, never corrupt them.
func seriesKey(values []string) string {
	key := ""
	for i, v := range values {
		if i > 0 {
			key += "\x1f"
		}
		key += v
	}
	return key
}

// with returns the series for the given label values, creating it with
// mk on first use. A wrong label-value count panics.
func (f *family) with(values []string, mk func() *series) *series {
	if len(values) != len(f.labels) {
		panic("metrics: " + f.name + ": wrong number of label values")
	}
	key := seriesKey(values)
	f.mu.Lock()
	defer f.mu.Unlock()
	if s, ok := f.series[key]; ok {
		return s
	}
	s := mk()
	s.labelValues = append([]string(nil), values...)
	f.series[key] = s
	return s
}

// setFunc installs (or replaces) a function-backed series.
func (f *family) setFunc(fn func() float64, values []string) {
	if len(values) != len(f.labels) {
		panic("metrics: " + f.name + ": wrong number of label values")
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	f.series[seriesKey(values)] = &series{
		labelValues: append([]string(nil), values...),
		fn:          fn,
	}
}

// snapshot returns the family's series sorted by label values, for
// deterministic exposition output.
func (f *family) snapshot() []*series {
	f.mu.Lock()
	out := make([]*series, 0, len(f.series))
	keys := make([]string, 0, len(f.series))
	for k := range f.series {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		out = append(out, f.series[k])
	}
	f.mu.Unlock()
	return out
}

// addFloat atomically adds v to a float64 stored as uint64 bits.
func addFloat(bits *atomic.Uint64, v float64) {
	for {
		old := bits.Load()
		if bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// Counter is a monotonically increasing sample. The zero value is ready
// to use, but a Counter only appears on the exposition page once created
// through a Registry.
type Counter struct {
	bits atomic.Uint64
}

// Inc adds 1.
func (c *Counter) Inc() { c.Add(1) }

// Add adds v, which must not be negative (counters are monotonic).
func (c *Counter) Add(v float64) {
	if v < 0 {
		panic("metrics: counter decrease")
	}
	addFloat(&c.bits, v)
}

// Value returns the current count.
func (c *Counter) Value() float64 { return math.Float64frombits(c.bits.Load()) }

// Gauge is a sample that can go up and down.
type Gauge struct {
	bits atomic.Uint64
}

// Set replaces the gauge's value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adds v (negative values decrease the gauge).
func (g *Gauge) Add(v float64) { addFloat(&g.bits, v) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram is a fixed-bucket distribution sample: cumulative bucket
// counts over configured upper bounds plus an implicit +Inf bucket, a
// running sum, and a count. Observe is lock-free.
type Histogram struct {
	upper  []float64 // sorted bucket upper bounds, +Inf excluded
	counts []atomic.Uint64
	sum    atomic.Uint64 // float64 bits
	count  atomic.Uint64
}

func newHistogram(buckets []float64) *Histogram {
	return &Histogram{upper: buckets, counts: make([]atomic.Uint64, len(buckets)+1)}
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	// First bucket whose upper bound is >= v; len(upper) is +Inf.
	i := sort.SearchFloat64s(h.upper, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	addFloat(&h.sum, v)
}

// Quantile estimates the q-quantile (0 < q <= 1) of the observed
// distribution from the bucket counts, interpolating linearly within the
// bucket holding the target rank — the same estimate Prometheus's
// histogram_quantile computes. Targets landing in the +Inf bucket clamp
// to the largest finite bound (the resolution limit of the buckets), and
// an empty histogram reports 0. The estimate is approximate by
// construction; it is meant for feedback loops (e.g. admission cost
// estimates), not billing.
func (h *Histogram) Quantile(q float64) float64 {
	total := h.count.Load()
	if total == 0 || math.IsNaN(q) || q <= 0 {
		return 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(total)
	cum := 0.0
	for i := range h.counts {
		c := float64(h.counts[i].Load())
		if c > 0 && cum+c >= rank {
			if i == len(h.upper) {
				break // +Inf bucket: clamp below
			}
			lo := 0.0
			if i > 0 {
				lo = h.upper[i-1]
			}
			return lo + (h.upper[i]-lo)*(rank-cum)/c
		}
		cum += c
	}
	if len(h.upper) == 0 {
		return 0
	}
	return h.upper[len(h.upper)-1]
}

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// normBuckets sorts, deduplicates and validates histogram bucket bounds,
// dropping a trailing +Inf (it is implicit). Empty input defaults to
// DefBuckets.
func normBuckets(buckets []float64) []float64 {
	if len(buckets) == 0 {
		return DefBuckets()
	}
	out := make([]float64, 0, len(buckets))
	for _, b := range buckets {
		if math.IsNaN(b) {
			panic("metrics: NaN histogram bucket")
		}
		if math.IsInf(b, +1) {
			continue // +Inf is implicit
		}
		out = append(out, b)
	}
	sort.Float64s(out)
	dedup := out[:0]
	for i, b := range out {
		if i == 0 || b != out[i-1] {
			dedup = append(dedup, b)
		}
	}
	if len(dedup) == 0 {
		return DefBuckets()
	}
	return dedup
}

// Counter registers and returns an unlabeled counter.
func (r *Registry) Counter(name, help string) *Counter {
	f := r.newFamily(name, help, counterKind, nil)
	return f.with(nil, func() *series { return &series{counter: &Counter{}} }).counter
}

// CounterFunc registers a function-backed counter: fn is read at scrape
// time and must be monotonically non-decreasing.
func (r *Registry) CounterFunc(name, help string, fn func() float64) {
	r.newFamily(name, help, counterKind, nil).setFunc(fn, nil)
}

// Gauge registers and returns an unlabeled gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	f := r.newFamily(name, help, gaugeKind, nil)
	return f.with(nil, func() *series { return &series{gauge: &Gauge{}} }).gauge
}

// GaugeFunc registers a function-backed gauge read at scrape time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	r.newFamily(name, help, gaugeKind, nil).setFunc(fn, nil)
}

// Histogram registers and returns an unlabeled histogram with the given
// bucket upper bounds (nil/empty defaults to DefBuckets).
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	f := r.newFamily(name, help, histogramKind, normBuckets(buckets))
	return f.with(nil, func() *series { return &series{histogram: newHistogram(f.buckets)} }).histogram
}

// CounterVec is a labeled counter family.
type CounterVec struct{ f *family }

// CounterVec registers a counter family with the given label keys.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	return &CounterVec{r.newFamily(name, help, counterKind, nil, labels...)}
}

// With returns the counter for the given label values, creating it on
// first use.
func (v *CounterVec) With(values ...string) *Counter {
	return v.f.with(values, func() *series { return &series{counter: &Counter{}} }).counter
}

// Func installs a function-backed series for the given label values; fn
// is read at scrape time and must be monotonically non-decreasing.
// Reinstalling replaces the previous series.
func (v *CounterVec) Func(fn func() float64, values ...string) { v.f.setFunc(fn, values) }

// GaugeVec is a labeled gauge family; its series are function-backed.
type GaugeVec struct{ f *family }

// GaugeVec registers a gauge family with the given label keys.
func (r *Registry) GaugeVec(name, help string, labels ...string) *GaugeVec {
	return &GaugeVec{r.newFamily(name, help, gaugeKind, nil, labels...)}
}

// Func installs a function-backed gauge for the given label values.
func (v *GaugeVec) Func(fn func() float64, values ...string) { v.f.setFunc(fn, values) }

// HistogramVec is a labeled histogram family; every series shares the
// family's bucket layout.
type HistogramVec struct{ f *family }

// HistogramVec registers a histogram family with the given buckets
// (nil/empty defaults to DefBuckets) and label keys.
func (r *Registry) HistogramVec(name, help string, buckets []float64, labels ...string) *HistogramVec {
	return &HistogramVec{r.newFamily(name, help, histogramKind, normBuckets(buckets), labels...)}
}

// With returns the histogram for the given label values.
func (v *HistogramVec) With(values ...string) *Histogram {
	return v.f.with(values, func() *series { return &series{histogram: newHistogram(v.f.buckets)} }).histogram
}
