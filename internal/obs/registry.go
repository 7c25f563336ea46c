// Package obs is the process-wide telemetry layer of the DDR stack: a
// concurrency-safe metrics registry (counters, gauges, fixed-bucket
// histograms with per-rank labels) exportable in Prometheus text format,
// plus Chrome trace-event / Perfetto JSON export over trace.Recorder
// timelines and an HTTP server mounting /metrics and net/http/pprof.
//
// Every instrument handle is nil-safe: methods on a nil *Counter, *Gauge,
// or *Histogram are no-ops, and a nil *Registry hands out nil instruments.
// Hot paths therefore register their handles once and call them
// unconditionally — when telemetry is not attached the calls cost a nil
// check and allocate nothing, so instrumentation can stay woven through
// the runtime permanently.
package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Label is one key/value pair attached to an instrument, rendered in
// Prometheus form as key="value".
type Label struct {
	Key, Value string
}

// RankLabel is the conventional label identifying which rank an
// instrument belongs to; every per-rank instrument in the stack uses it.
func RankLabel(rank int) Label {
	return Label{Key: "rank", Value: strconv.Itoa(rank)}
}

// Counter is a monotonically increasing int64 metric.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter. No-op on a nil counter.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 for a nil counter).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an int64 metric that can go up and down (queue depths,
// in-flight operations).
type Gauge struct {
	v atomic.Int64
}

// Set replaces the gauge value. No-op on a nil gauge.
func (g *Gauge) Set(n int64) {
	if g == nil {
		return
	}
	g.v.Store(n)
}

// Add moves the gauge by n (negative to decrease). No-op on a nil gauge.
func (g *Gauge) Add(n int64) {
	if g == nil {
		return
	}
	g.v.Add(n)
}

// SetMax raises the gauge to n if n exceeds the current value, leaving
// it unchanged otherwise — a lock-free high-water mark for concurrent
// writers (peak staging bytes, deepest queue). No-op on a nil gauge.
func (g *Gauge) SetMax(n int64) {
	if g == nil {
		return
	}
	for {
		cur := g.v.Load()
		if n <= cur || g.v.CompareAndSwap(cur, n) {
			return
		}
	}
}

// Value returns the current gauge value (0 for a nil gauge).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// FloatGauge is a float64 metric that can go up and down, for ratios
// and rates that an int64 Gauge cannot carry (overlap efficiency,
// utilization fractions). The value is stored as float64 bits in an
// atomic word, so Set and Value never take a lock.
type FloatGauge struct {
	bits atomic.Uint64
}

// Set replaces the gauge value. No-op on a nil gauge.
func (g *FloatGauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Value returns the current gauge value (0 for a nil gauge).
func (g *FloatGauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram is a fixed-bucket histogram. Buckets are upper bounds in
// ascending order; an implicit +Inf bucket catches the overflow. The sum
// is kept as float64 bits updated by CAS so Observe never takes a lock.
type Histogram struct {
	bounds []float64
	counts []atomic.Int64 // len(bounds)+1, last is +Inf
	count  atomic.Int64
	sum    atomic.Uint64 // float64 bits
}

// Observe records one value. No-op on a nil histogram.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	// Bounds are few (tens); linear scan beats binary search in practice
	// and keeps the loop branch-predictable for latency-shaped data.
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// ObserveSince records the seconds elapsed since start. No-op on a nil
// histogram — callers should still avoid the time.Now() when they know
// telemetry is detached.
func (h *Histogram) ObserveSince(start time.Time) {
	if h == nil {
		return
	}
	h.Observe(time.Since(start).Seconds())
}

// Count returns the number of observations (0 for a nil histogram).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of observed values (0 for a nil histogram).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}

// ExponentialBuckets returns n upper bounds starting at start and growing
// by factor, for histograms whose values span orders of magnitude.
func ExponentialBuckets(start, factor float64, n int) []float64 {
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// LatencyBuckets covers 1µs to ~16s in powers of two — the operating
// range of everything from an in-process mailbox append to a cross-host
// collective.
var LatencyBuckets = ExponentialBuckets(1e-6, 2, 25)

// instrument is the registry's view of a metric at export time.
type instrument interface {
	write(w io.Writer, name, labels string)
	typeName() string
}

func (c *Counter) typeName() string    { return "counter" }
func (g *Gauge) typeName() string      { return "gauge" }
func (g *FloatGauge) typeName() string { return "gauge" }
func (h *Histogram) typeName() string  { return "histogram" }

// family groups all label variants of one metric name.
type family struct {
	help string
	typ  string
	// keys preserves registration order of label sets for stable export.
	keys  []string
	insts map[string]instrument
}

// Registry holds registered instruments and renders them in Prometheus
// text exposition format. All methods are safe for concurrent use; the
// zero value is not usable — construct with NewRegistry. A nil *Registry
// is valid and hands out nil (no-op) instruments.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
	names    []string // registration order
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: map[string]*family{}}
}

// labelKey renders labels canonically (sorted by key) for identity and
// export.
func labelKey(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	var b strings.Builder
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(l.Value))
		b.WriteByte('"')
	}
	return b.String()
}

func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

// lookup returns the instrument registered under (name, labels), creating
// it with mk on first use. Registering the same name and labels twice
// returns the original instrument, so handles can be re-derived freely.
func (r *Registry) lookup(name, help, typ string, labels []Label, mk func() instrument) instrument {
	key := labelKey(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.families[name]
	if f == nil {
		f = &family{help: help, typ: typ, insts: map[string]instrument{}}
		r.families[name] = f
		r.names = append(r.names, name)
	}
	if inst, ok := f.insts[key]; ok {
		return inst
	}
	inst := mk()
	f.insts[key] = inst
	f.keys = append(f.keys, key)
	return inst
}

// Counter registers (or re-derives) a counter. A nil registry returns a
// nil, no-op counter.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	if r == nil {
		return nil
	}
	inst := r.lookup(name, help, "counter", labels, func() instrument { return &Counter{} })
	c, ok := inst.(*Counter)
	if !ok {
		return nil // name already registered with another type; disable quietly
	}
	return c
}

// Gauge registers (or re-derives) a gauge. A nil registry returns a nil,
// no-op gauge.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	if r == nil {
		return nil
	}
	inst := r.lookup(name, help, "gauge", labels, func() instrument { return &Gauge{} })
	g, ok := inst.(*Gauge)
	if !ok {
		return nil
	}
	return g
}

// FloatGauge registers (or re-derives) a float-valued gauge. A nil
// registry returns a nil, no-op gauge.
func (r *Registry) FloatGauge(name, help string, labels ...Label) *FloatGauge {
	if r == nil {
		return nil
	}
	inst := r.lookup(name, help, "gauge", labels, func() instrument { return &FloatGauge{} })
	g, ok := inst.(*FloatGauge)
	if !ok {
		return nil
	}
	return g
}

// Histogram registers (or re-derives) a histogram with the given upper
// bounds (ascending; +Inf is implicit). A nil registry returns a nil,
// no-op histogram. Re-deriving ignores the buckets argument and returns
// the original instrument.
func (r *Registry) Histogram(name, help string, buckets []float64, labels ...Label) *Histogram {
	if r == nil {
		return nil
	}
	inst := r.lookup(name, help, "histogram", labels, func() instrument {
		bounds := append([]float64(nil), buckets...)
		return &Histogram{bounds: bounds, counts: make([]atomic.Int64, len(bounds)+1)}
	})
	h, ok := inst.(*Histogram)
	if !ok {
		return nil
	}
	return h
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func (c *Counter) write(w io.Writer, name, labels string) {
	fmt.Fprintf(w, "%s%s %d\n", name, braced(labels), c.Value())
}

func (g *Gauge) write(w io.Writer, name, labels string) {
	fmt.Fprintf(w, "%s%s %d\n", name, braced(labels), g.Value())
}

func (g *FloatGauge) write(w io.Writer, name, labels string) {
	fmt.Fprintf(w, "%s%s %s\n", name, braced(labels), formatFloat(g.Value()))
}

func (h *Histogram) write(w io.Writer, name, labels string) {
	cum := int64(0)
	for i, b := range h.bounds {
		cum += h.counts[i].Load()
		fmt.Fprintf(w, "%s_bucket%s %d\n", name, braced(joinLabels(labels, `le="`+formatFloat(b)+`"`)), cum)
	}
	cum += h.counts[len(h.bounds)].Load()
	fmt.Fprintf(w, "%s_bucket%s %d\n", name, braced(joinLabels(labels, `le="+Inf"`)), cum)
	fmt.Fprintf(w, "%s_sum%s %s\n", name, braced(labels), formatFloat(h.Sum()))
	fmt.Fprintf(w, "%s_count%s %d\n", name, braced(labels), h.Count())
}

func braced(labels string) string {
	if labels == "" {
		return ""
	}
	return "{" + labels + "}"
}

func joinLabels(a, b string) string {
	if a == "" {
		return b
	}
	return a + "," + b
}

// WritePrometheus renders every registered instrument in Prometheus text
// exposition format (version 0.0.4). Families appear in registration
// order, label variants within a family likewise.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	type entry struct {
		labels string
		inst   instrument
	}
	type section struct {
		name, help, typ string
		entries         []entry
	}
	// Snapshot under the lock so export never races with registration;
	// the instrument values themselves are atomic and read afterwards.
	r.mu.Lock()
	sections := make([]section, 0, len(r.names))
	for _, n := range r.names {
		f := r.families[n]
		s := section{name: n, help: f.help, typ: f.typ}
		for _, key := range f.keys {
			s.entries = append(s.entries, entry{labels: key, inst: f.insts[key]})
		}
		sections = append(sections, s)
	}
	r.mu.Unlock()

	for _, s := range sections {
		if s.help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", s.name, s.help); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", s.name, s.typ); err != nil {
			return err
		}
		for _, e := range s.entries {
			e.inst.write(w, s.name, e.labels)
		}
	}
	return nil
}
