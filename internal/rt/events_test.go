package rt

import (
	"io"
	"testing"

	"sword/internal/compress"
	"sword/internal/memsim"
	"sword/internal/obs"
	"sword/internal/omp"
	"sword/internal/trace"
	"sword/internal/workloads"
)

// eventModes are the collector's three flush disciplines; rt.events is
// folded in per flushed buffer, so each must still count every event.
var eventModes = []struct {
	name string
	cfg  Config
}{
	{"async", Config{}},
	{"sync", Config{Synchronous: true}},
	{"live", Config{LiveFlush: true}},
}

// decodedEvents counts the events a store's logs decode to, every access
// of a run record included, and the records that carry them.
func decodedEvents(t *testing.T, store trace.Store) (n, records uint64) {
	t.Helper()
	slots, err := store.Slots()
	if err != nil {
		t.Fatal(err)
	}
	var ev trace.Event
	for _, slot := range slots {
		src, err := store.OpenLog(slot)
		if err != nil {
			t.Fatal(err)
		}
		lr := trace.NewLogReader(src)
		for {
			_, block, err := lr.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatalf("slot %d: %v", slot, err)
			}
			for dec := trace.NewDecoder(block); dec.More(); records++ {
				if err := dec.Next(&ev); err != nil {
					t.Fatalf("slot %d: %v", slot, err)
				}
				n += ev.Count
			}
		}
		lr.Close()
	}
	return n, records
}

// TestEventsCountExact pins rt.events as an exact count after Close on
// every bundled workload and in every flush mode: Stats().Events, the
// registry's rt.events and the events decoded back from the written logs
// (summing each run record's count) all agree, although the counter is
// only folded in once per buffer. rt.records likewise equals the records
// decoded.
func TestEventsCountExact(t *testing.T) {
	for _, w := range workloads.All() {
		for _, mode := range eventModes {
			t.Run(w.Name+"/"+mode.name, func(t *testing.T) {
				m := obs.New()
				cfg := mode.cfg
				cfg.Obs = m
				store := trace.NewMemStore()
				col := New(store, cfg)
				w.Run(&workloads.Ctx{
					RT:      omp.New(omp.WithTool(col)),
					Space:   memsim.NewSpace(nil),
					Threads: 4,
					Size:    w.DefaultSize,
				})
				if err := col.Close(); err != nil {
					t.Fatal(err)
				}
				stats := col.Stats().Events
				snap := uint64(m.Snapshot().Value("rt.events"))
				decoded, records := decodedEvents(t, store)
				if stats != snap || stats != decoded {
					t.Fatalf("Stats().Events = %d, rt.events = %d, decoded = %d", stats, snap, decoded)
				}
				if r, snapR := col.Stats().Records, uint64(m.Snapshot().Value("rt.records")); r != snapR || r != records {
					t.Fatalf("Stats().Records = %d, rt.records = %d, decoded = %d", r, snapR, records)
				}
			})
		}
	}
}

// TestEventsCountedOnDegradedSlot: a slot whose trace writes fail mid-run
// drops its blocks but keeps appending; those events still pass through
// flush and are counted, exactly as many as the program performed.
func TestEventsCountedOnDegradedSlot(t *testing.T) {
	const rounds = 400
	const want = 256 * rounds // faultWorkload: one store per loop iteration, 256 per round
	for _, mode := range eventModes {
		t.Run(mode.name, func(t *testing.T) {
			fs := trace.NewFaultStore(trace.NewMemStore())
			fs.FailWritesAfter(80<<10, nil)
			m := obs.New()
			cfg := mode.cfg
			cfg.MaxEvents, cfg.Codec, cfg.Obs = 128, compress.Raw{}, m
			col := New(fs, cfg)
			faultWorkload(col, rounds)
			if err := col.Close(); err == nil {
				t.Fatal("Close reported no error after write failures")
			}
			stats := col.Stats()
			if stats.DegradedSlots == 0 {
				t.Fatalf("stats = %+v, want a degraded slot", stats)
			}
			if stats.Events != want {
				t.Errorf("Stats().Events = %d, want %d", stats.Events, want)
			}
			if got := m.Snapshot().Value("rt.events"); got != want {
				t.Errorf("rt.events = %d, want %d", got, want)
			}
		})
	}
}
