package main

import (
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"sword/internal/trace"
)

// span is one traced call into a layer, or an instant (Start == End) such
// as a race delivered by the live analyzer. Parent 0 marks a root.
type span struct {
	Iter   int    `json:"iter"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps the spans of a run in memory. A nil tracer records nothing,
// so untraced iterations run the same code with no span bookkeeping.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	iter  int
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id (0 on a nil tracer).
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{Iter: t.iter, ID: id, Parent: parent, Name: name, Start: now, End: -1})
	return id
}

// end closes the span id.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// instant records a zero-length span under parent.
func (t *tracer) instant(name string, parent int) {
	if t == nil {
		return
	}
	t.end(t.begin(name, parent))
}

// nextIteration starts a new iteration and returns the index of its first
// span, for selfTimes.
func (t *tracer) nextIteration() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.iter++
	return len(t.spans)
}

// selfTimes sums, per span name, the self time of the spans recorded since
// index from: a span's duration minus the part of it its children cover.
func (t *tracer) selfTimes(from int) map[string]time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	spans := t.spans[from:]
	children := make(map[int][][2]int64)
	for _, s := range spans {
		if s.Parent != 0 && s.End > s.Start {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := make(map[string]time.Duration)
	for _, s := range spans {
		if s.End < s.Start {
			continue
		}
		out[s.Name] += time.Duration(s.End - s.Start - covered(children[s.ID], s.Start, s.End))
	}
	return out
}

// covered returns how much of [lo, hi) the union of ivs covers.
func covered(ivs [][2]int64, lo, hi int64) int64 {
	slices.SortFunc(ivs, func(a, b [2]int64) int { return cmp.Compare(a[0], b[0]) })
	var total int64
	cur := lo
	for _, iv := range ivs {
		s, e := max(iv[0], cur), min(iv[1], hi)
		if e > s {
			total += e - s
			cur = e
		}
	}
	return total
}

// write stores the spans as JSON lines under dir.
func (t *tracer) write(dir, name string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	return f.Close()
}

// timedStore is the trace store of a traced iteration: it forwards to the
// store the benchmark owns and accumulates the time spent in Write and
// Read calls on the files it hands out.
type timedStore struct {
	trace.Store
	writeNs, readNs atomic.Int64
}

func (s *timedStore) CreateLog(slot int) (io.WriteCloser, error) {
	return s.writer(s.Store.CreateLog(slot))
}

func (s *timedStore) CreateMeta(slot int) (io.WriteCloser, error) {
	return s.writer(s.Store.CreateMeta(slot))
}

func (s *timedStore) CreateAux(name string) (io.WriteCloser, error) {
	return s.writer(s.Store.CreateAux(name))
}

func (s *timedStore) OpenLog(slot int) (io.ReadCloser, error) { return s.reader(s.Store.OpenLog(slot)) }

func (s *timedStore) OpenMeta(slot int) (io.ReadCloser, error) {
	return s.reader(s.Store.OpenMeta(slot))
}

func (s *timedStore) OpenAux(name string) (io.ReadCloser, error) {
	return s.reader(s.Store.OpenAux(name))
}

func (s *timedStore) writer(w io.WriteCloser, err error) (io.WriteCloser, error) {
	if err != nil {
		return nil, err
	}
	return timedWriter{w, &s.writeNs}, nil
}

func (s *timedStore) reader(r io.ReadCloser, err error) (io.ReadCloser, error) {
	if err != nil {
		return nil, err
	}
	return timedReader{r, &s.readNs}, nil
}

type timedWriter struct {
	io.WriteCloser
	ns *atomic.Int64
}

func (w timedWriter) Write(p []byte) (int, error) {
	start := time.Now()
	n, err := w.WriteCloser.Write(p)
	w.ns.Add(int64(time.Since(start)))
	return n, err
}

type timedReader struct {
	io.ReadCloser
	ns *atomic.Int64
}

func (r timedReader) Read(p []byte) (int, error) {
	start := time.Now()
	n, err := r.ReadCloser.Read(p)
	r.ns.Add(int64(time.Since(start)))
	return n, err
}

// decodePass reads every log of store block by block and decodes every
// event: the trace layer's read path without the analyzer behind it.
func decodePass(store trace.Store) (events uint64, err error) {
	slots, err := store.Slots()
	if err != nil {
		return 0, err
	}
	var dec trace.Decoder
	var ev trace.Event
	for _, slot := range slots {
		src, err := store.OpenLog(slot)
		if err != nil {
			return events, fmt.Errorf("open log %d: %w", slot, err)
		}
		lr := trace.NewLogReader(src)
		for {
			_, raw, err := lr.Next()
			if errors.Is(err, io.EOF) {
				break
			}
			if err != nil {
				lr.Close()
				return events, fmt.Errorf("read log %d: %w", slot, err)
			}
			dec.Reset(raw)
			for dec.More() {
				if err := dec.Next(&ev); err != nil {
					lr.Close()
					return events, fmt.Errorf("decode log %d: %w", slot, err)
				}
				events++
			}
		}
		if err := lr.Close(); err != nil {
			return events, fmt.Errorf("close log %d: %w", slot, err)
		}
	}
	return events, nil
}
