// Package obs is SWORD's observability layer: a lightweight registry of
// atomic counters, gauges and phase timers threaded through both phases of
// the pipeline — the dynamic collector (events, buffer fills, flush
// latency, compressed vs raw bytes), the flush codecs (per-codec ratio and
// throughput), and the offline analyzer (per-phase wall times, interval
// pairs, solver invocations vs bounding-box fast-paths, peak resident tree
// nodes).
//
// The paper's whole pitch is *bounded, predictable* overhead in production
// runs; this package is the gauge that makes that claim measurable on the
// reproduction instead of relying on ad-hoc timers. Recording a value is
// one allocation-free atomic add — cheap, but a write to shared memory (see
// the cost rule below). Every handle is nil-safe: a nil *Metrics yields nil
// instruments whose methods are no-ops, so instrumented code never branches
// on "is observability enabled".
//
// The cost rule: an instrument is shared memory, so nothing records into
// one per event or per tree node. Per-event and per-node quantities are
// kept slot-local or worker-local and fold into the registry at flush or
// snapshot time — the collector's rt.events, for example, is added once
// per flushed buffer. An atomic add on a counter every thread hits is a
// cache-line transfer per call; on the collector's per-access path two of
// them took over a third of all collection CPU.
//
// Snapshots are deterministic (sorted by name) and export through a
// pluggable Sink — JSON, CSV, or expvar — so the CLIs' -metrics-out flags
// and the experiment harness share one schema (documented in
// docs/FORMAT.md).
package obs

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Metric kinds, as they appear in exported snapshots.
const (
	KindCounter = "counter"
	KindGauge   = "gauge"
	KindTimer   = "timer"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct{ v atomic.Uint64 }

// Add increments the counter by n. No-op on a nil counter.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one. No-op on a nil counter.
func (c *Counter) Inc() { c.Add(1) }

// Load returns the current value; zero on a nil counter.
func (c *Counter) Load() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomic instantaneous value; SetMax turns it into a
// high-water mark (peak resident tree nodes, live slots).
type Gauge struct{ v atomic.Int64 }

// Set stores v. No-op on a nil gauge.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Add adjusts the gauge by delta. No-op on a nil gauge.
func (g *Gauge) Add(delta int64) {
	if g == nil {
		return
	}
	g.v.Add(delta)
}

// SetMax raises the gauge to v if v exceeds the current value.
func (g *Gauge) SetMax(v int64) {
	if g == nil {
		return
	}
	for {
		cur := g.v.Load()
		if v <= cur || g.v.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Load returns the current value; zero on a nil gauge.
func (g *Gauge) Load() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Timer accumulates wall-time observations: a total duration and a count,
// from which rates and means derive.
type Timer struct {
	total atomic.Int64 // nanoseconds
	count atomic.Uint64
}

// Observe adds one duration sample. No-op on a nil timer.
func (t *Timer) Observe(d time.Duration) {
	if t == nil {
		return
	}
	t.total.Add(int64(d))
	t.count.Add(1)
}

// Total returns the accumulated duration; zero on a nil timer.
func (t *Timer) Total() time.Duration {
	if t == nil {
		return 0
	}
	return time.Duration(t.total.Load())
}

// Count returns the number of observations; zero on a nil timer.
func (t *Timer) Count() uint64 {
	if t == nil {
		return 0
	}
	return t.count.Load()
}

// Metrics is a named-instrument registry. Instruments are created on
// first use and live for the registry's lifetime; handles are cheap to
// cache and safe for concurrent use. The zero of *Metrics (nil) is a
// valid disabled registry: every lookup returns a nil no-op instrument.
type Metrics struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	timers   map[string]*Timer
}

// New returns an empty registry.
func New() *Metrics {
	return &Metrics{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		timers:   make(map[string]*Timer),
	}
}

// Counter returns (creating if needed) the named counter; nil when the
// registry is nil.
func (m *Metrics) Counter(name string) *Counter {
	if m == nil {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	c, ok := m.counters[name]
	if !ok {
		c = &Counter{}
		m.counters[name] = c
	}
	return c
}

// Gauge returns (creating if needed) the named gauge; nil when the
// registry is nil.
func (m *Metrics) Gauge(name string) *Gauge {
	if m == nil {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	g, ok := m.gauges[name]
	if !ok {
		g = &Gauge{}
		m.gauges[name] = g
	}
	return g
}

// Timer returns (creating if needed) the named timer; nil when the
// registry is nil.
func (m *Metrics) Timer(name string) *Timer {
	if m == nil {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	t, ok := m.timers[name]
	if !ok {
		t = &Timer{}
		m.timers[name] = t
	}
	return t
}

// Metric is one instrument's exported state. Counters and gauges carry
// Value; timers carry Value (total nanoseconds) plus Count (observations).
type Metric struct {
	Name  string `json:"name"`
	Kind  string `json:"kind"`
	Value int64  `json:"value"`
	Count uint64 `json:"count,omitempty"`
}

// Duration interprets the metric's value as nanoseconds (timers).
func (m Metric) Duration() time.Duration { return time.Duration(m.Value) }

// Snapshot is a point-in-time export of a registry, sorted by name so
// serialized forms are stable (golden-testable).
type Snapshot []Metric

// Snapshot captures every instrument's current value. A nil registry
// yields a nil snapshot.
func (m *Metrics) Snapshot() Snapshot {
	if m == nil {
		return nil
	}
	m.mu.Lock()
	s := make(Snapshot, 0, len(m.counters)+len(m.gauges)+len(m.timers))
	for name, c := range m.counters {
		s = append(s, Metric{Name: name, Kind: KindCounter, Value: int64(c.Load())})
	}
	for name, g := range m.gauges {
		s = append(s, Metric{Name: name, Kind: KindGauge, Value: g.Load()})
	}
	for name, t := range m.timers {
		s = append(s, Metric{Name: name, Kind: KindTimer, Value: int64(t.Total()), Count: t.Count()})
	}
	m.mu.Unlock()
	sort.Slice(s, func(i, j int) bool { return s[i].Name < s[j].Name })
	return s
}

// Get returns the named metric and whether it exists.
func (s Snapshot) Get(name string) (Metric, bool) {
	i := sort.Search(len(s), func(i int) bool { return s[i].Name >= name })
	if i < len(s) && s[i].Name == name {
		return s[i], true
	}
	return Metric{}, false
}

// Value returns the named metric's value, zero when absent.
func (s Snapshot) Value(name string) int64 {
	m, _ := s.Get(name)
	return m.Value
}

// Duration returns the named timer's total, zero when absent.
func (s Snapshot) Duration(name string) time.Duration {
	m, _ := s.Get(name)
	return m.Duration()
}
