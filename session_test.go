package sword_test

import (
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"testing"

	"sword"
	"sword/internal/trace"
)

// collectSomething runs a small parallel store through the session so every
// slot produces log and meta data.
func collectSomething(t *testing.T, s *sword.Session) {
	t.Helper()
	x, err := s.Space().AllocF64(64)
	if err != nil {
		t.Fatal(err)
	}
	pc := sword.Site("session_test:store")
	s.Runtime().Parallel(2, func(th *sword.Thread) {
		th.For(0, 64, func(i int) { th.StoreF64(x, i, float64(i), pc) })
	})
}

func TestFinishClosesDirStoreWriters(t *testing.T) {
	store, err := trace.NewDirStore(filepath.Join(t.TempDir(), "trace"))
	if err != nil {
		t.Fatal(err)
	}
	s, err := sword.NewSession(sword.WithStore(store))
	if err != nil {
		t.Fatal(err)
	}
	collectSomething(t, s)
	if _, _, err := s.Finish(); err != nil {
		t.Fatal(err)
	}
	if n := store.OpenWriters(); n != 0 {
		t.Fatalf("%d writers still open after Finish", n)
	}
}

func TestCollectOnlyClosesDirStoreWriters(t *testing.T) {
	store, err := trace.NewDirStore(filepath.Join(t.TempDir(), "trace"))
	if err != nil {
		t.Fatal(err)
	}
	s, err := sword.NewSession(sword.WithStore(store))
	if err != nil {
		t.Fatal(err)
	}
	collectSomething(t, s)
	if err := s.CollectOnly(); err != nil {
		t.Fatal(err)
	}
	if n := store.OpenWriters(); n != 0 {
		t.Fatalf("%d writers still open after CollectOnly", n)
	}
	// The trace must remain readable after the deterministic close.
	rep, _, err := sword.AnalyzeStore(store)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Len() != 0 {
		t.Fatalf("false alarms:\n%s", rep)
	}
}

// failingStore wraps a MemStore but refuses auxiliary files, making the
// collector's Close fail after the run.
type failingStore struct {
	*trace.MemStore
}

func (f failingStore) CreateAux(name string) (io.WriteCloser, error) {
	return nil, fmt.Errorf("injected aux failure for %q", name)
}

func TestDoubleFinishAfterErrorDoesNotLeak(t *testing.T) {
	s, err := sword.NewSession(sword.WithStore(failingStore{trace.NewMemStore()}))
	if err != nil {
		t.Fatal(err)
	}
	collectSomething(t, s)
	if _, _, err := s.Finish(); err == nil {
		t.Fatal("Finish succeeded despite failing store")
	}
	// The second Finish must report the session as finished — not retry the
	// close, not panic on an already-closed collector.
	if _, _, err := s.Finish(); !errors.Is(err, sword.ErrFinished) {
		t.Fatalf("second Finish after error: got %v, want ErrFinished", err)
	}
	// Close stays idempotent and keeps reporting the original failure.
	first := s.Close()
	if first == nil {
		t.Fatal("Close lost the close error")
	}
	if again := s.Close(); !errors.Is(again, first) && again.Error() != first.Error() {
		t.Fatalf("Close not idempotent: %v vs %v", first, again)
	}
}

// TestCollectorCountersMatchStoreBytes pins the observability layer to
// ground truth: the write-side rt.* counters must agree with the
// collector's Stats and with a byte-for-byte re-read of the stored logs,
// and the read-side trace.* counters recorded during analysis must agree
// with the write side.
func TestCollectorCountersMatchStoreBytes(t *testing.T) {
	store := trace.NewMemStore()
	m := sword.NewMetrics()
	s, err := sword.NewSession(sword.WithStore(store), sword.WithObs(m))
	if err != nil {
		t.Fatal(err)
	}
	collectSomething(t, s)
	if err := s.CollectOnly(); err != nil {
		t.Fatal(err)
	}
	stats := s.RunStats().Collect

	// Re-stream every log and total what is actually on disk.
	var raw, comp, blocks uint64
	slots, err := store.Slots()
	if err != nil {
		t.Fatal(err)
	}
	for _, slot := range slots {
		src, err := store.OpenLog(slot)
		if err != nil {
			t.Fatal(err)
		}
		lr := trace.NewLogReader(src)
		for {
			if _, _, err := lr.Next(); err == io.EOF {
				break
			} else if err != nil {
				t.Fatal(err)
			}
		}
		raw += lr.RawBytes()
		comp += lr.CompressedBytes()
		blocks += lr.Blocks()
		lr.Close()
	}
	if stats.RawBytes != raw || stats.CompressedBytes != comp {
		t.Fatalf("collector stats (%d raw, %d comp) disagree with stored logs (%d raw, %d comp)",
			stats.RawBytes, stats.CompressedBytes, raw, comp)
	}
	snap := m.Snapshot()
	if got := uint64(snap.Value("rt.raw_bytes")); got != raw {
		t.Fatalf("rt.raw_bytes = %d, stored logs hold %d", got, raw)
	}
	if got := uint64(snap.Value("rt.compressed_bytes")); got != comp {
		t.Fatalf("rt.compressed_bytes = %d, stored logs hold %d", got, comp)
	}
	if got := uint64(snap.Value("rt.flushes")); got != blocks {
		t.Fatalf("rt.flushes = %d, stored logs hold %d blocks", got, blocks)
	}
	if got := uint64(snap.Value("rt.events")); got != stats.Events {
		t.Fatalf("rt.events = %d, collector counted %d", got, stats.Events)
	}

	// The offline phase reads the same volume the collector wrote.
	if _, _, err := sword.AnalyzeStore(store, sword.WithObs(m)); err != nil {
		t.Fatal(err)
	}
	snap = m.Snapshot()
	if w, r := snap.Value("rt.compressed_bytes"), snap.Value("trace.compressed_bytes"); w != r {
		t.Fatalf("write side compressed %d bytes, read side consumed %d", w, r)
	}
	if w, r := snap.Value("rt.raw_bytes"), snap.Value("trace.raw_bytes"); w != r {
		t.Fatalf("write side raw %d bytes, read side consumed %d", w, r)
	}
	if w, r := snap.Value("rt.flushes"), snap.Value("trace.blocks"); w != r {
		t.Fatalf("write side flushed %d blocks, read side consumed %d", w, r)
	}
	if w, r := snap.Value("rt.events"), snap.Value("trace.events"); w != r {
		t.Fatalf("write side counted %d events, read side decoded %d", w, r)
	}
	if w, r := snap.Value("rt.records"), snap.Value("trace.records"); w != r || w == 0 {
		t.Fatalf("write side wrote %d records, read side decoded %d", w, r)
	}
}

// TestSessionObsCodecInstrumented checks that sessions route flushes
// through the instrumented codec: per-codec compress.* counters appear in
// the shared registry and agree with the rt.* byte totals.
func TestSessionObsCodecInstrumented(t *testing.T) {
	m := sword.NewMetrics()
	s, err := sword.NewSession(sword.WithCodec("flate"), sword.WithObs(m))
	if err != nil {
		t.Fatal(err)
	}
	collectSomething(t, s)
	if err := s.CollectOnly(); err != nil {
		t.Fatal(err)
	}
	snap := m.Snapshot()
	if got, want := snap.Value("compress.flate.raw_bytes"), snap.Value("rt.raw_bytes"); got != want {
		t.Fatalf("compress.flate.raw_bytes = %d, rt.raw_bytes = %d", got, want)
	}
	if got, want := snap.Value("compress.flate.compressed_bytes"), snap.Value("rt.compressed_bytes"); got != want {
		t.Fatalf("compress.flate.compressed_bytes = %d, rt.compressed_bytes = %d", got, want)
	}
	if snap.Value("compress.flate.blocks") == 0 {
		t.Fatal("no compression blocks recorded")
	}
}
