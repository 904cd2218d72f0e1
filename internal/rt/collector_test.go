package rt

import (
	"io"
	"testing"

	"sword/internal/compress"
	"sword/internal/memsim"
	"sword/internal/omp"
	"sword/internal/pcreg"
	"sword/internal/trace"
)

// readSlot decodes a slot's full log into events with their logical
// positions, plus the slot's meta records. A run record expands into its
// accesses, each at the run's position, so the events are one per access
// or mutex operation the program performed.
func readSlot(t *testing.T, store trace.Store, slot int) (events []trace.Event, positions []uint64, metas []trace.Meta) {
	t.Helper()
	src, err := store.OpenLog(slot)
	if err != nil {
		t.Fatal(err)
	}
	lr := trace.NewLogReader(src)
	for {
		start, raw, err := lr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		dec := trace.NewDecoder(raw)
		for dec.More() {
			pos := start + uint64(dec.Pos())
			var ev trace.Event
			if err := dec.Next(&ev); err != nil {
				t.Fatal(err)
			}
			for n := ev.Count; n > 0; n-- {
				one := ev
				one.Stride, one.Count = 0, 1
				events = append(events, one)
				positions = append(positions, pos)
				ev.Addr += uint64(ev.Stride)
			}
		}
	}
	lr.Close()
	msrc, err := store.OpenMeta(slot)
	if err != nil {
		t.Fatal(err)
	}
	metas, err = trace.ReadAllMeta(msrc)
	if err != nil {
		t.Fatal(err)
	}
	return events, positions, metas
}

func collect(t *testing.T, cfg Config, program func(rt *omp.Runtime)) (trace.Store, *Collector) {
	t.Helper()
	store := trace.NewMemStore()
	col := New(store, cfg)
	runtime := omp.New(omp.WithTool(col))
	program(runtime)
	if err := col.Close(); err != nil {
		t.Fatal(err)
	}
	return store, col
}

func TestSimpleRegionRoundTrip(t *testing.T) {
	space := memsim.NewSpace(nil)
	arr, _ := space.AllocF64(64)
	pcR := pcreg.Site("rt-test:read")
	pcW := pcreg.Site("rt-test:write")
	store, col := collect(t, Config{Synchronous: true}, func(rt *omp.Runtime) {
		rt.Parallel(2, func(th *omp.Thread) {
			th.For(0, 64, func(i int) {
				v := th.LoadF64(arr, i, pcR)
				th.StoreF64(arr, i, v+1, pcW)
			})
		})
	})
	slots, err := store.Slots()
	if err != nil {
		t.Fatal(err)
	}
	if len(slots) != 2 {
		t.Fatalf("slots = %v, want 2", slots)
	}
	totalAccesses := 0
	for _, slot := range slots {
		events, positions, metas := readSlot(t, store, slot)
		if len(metas) == 0 {
			t.Fatalf("slot %d has no meta records", slot)
		}
		for _, m := range metas {
			if m.Span != 2 || m.Level != 1 {
				t.Fatalf("meta %+v", m)
			}
		}
		// Every event must fall inside exactly one fragment.
		for i, pos := range positions {
			in := 0
			for _, m := range metas {
				if pos >= m.DataBegin && pos < m.DataBegin+m.DataSize {
					in++
				}
			}
			if in != 1 {
				t.Fatalf("event %d at %d covered by %d fragments", i, pos, in)
			}
		}
		for _, ev := range events {
			if ev.Kind != trace.KindAccess {
				t.Fatalf("unexpected event %+v", ev)
			}
			if ev.PC != pcR && ev.PC != pcW {
				t.Fatalf("unknown pc %d", ev.PC)
			}
			if ev.Addr < arr.Base() || ev.Addr > arr.Addr(63) {
				t.Fatalf("address %#x outside array", ev.Addr)
			}
			totalAccesses++
		}
	}
	if totalAccesses != 2*64 {
		t.Fatalf("decoded %d accesses, want 128", totalAccesses)
	}
	stats := col.Stats()
	if stats.Events != 2*64 || stats.Slots != 2 {
		t.Fatalf("stats %+v", stats)
	}
	if stats.CompressedBytes == 0 || stats.RawBytes == 0 {
		t.Fatalf("byte counters empty: %+v", stats)
	}
}

func TestBarrierSplitsFragments(t *testing.T) {
	space := memsim.NewSpace(nil)
	arr, _ := space.AllocF64(8)
	pc := pcreg.Site("rt-test:barrier")
	store, _ := collect(t, Config{Synchronous: true}, func(rt *omp.Runtime) {
		rt.Parallel(2, func(th *omp.Thread) {
			th.StoreF64(arr, th.ID(), 1, pc)
			th.Barrier()
			th.StoreF64(arr, th.ID()+2, 1, pc)
			th.Barrier()
			th.StoreF64(arr, th.ID()+4, 1, pc)
		})
	})
	slots, _ := store.Slots()
	for _, slot := range slots {
		_, _, metas := readSlot(t, store, slot)
		if len(metas) != 3 {
			t.Fatalf("slot %d: %d fragments, want 3:\n%s", slot, len(metas), trace.FormatMetaTable(metas))
		}
		for i, m := range metas {
			if m.BID != uint64(i) {
				t.Fatalf("fragment %d has bid %d", i, m.BID)
			}
			tid := m.TID()
			if m.Offset != tid+m.BID*m.Span {
				t.Fatalf("offset-span mismatch: %+v", m)
			}
		}
	}
}

func TestNestedRegionSuspendsFragment(t *testing.T) {
	space := memsim.NewSpace(nil)
	arr, _ := space.AllocF64(16)
	pcOuter := pcreg.Site("rt-test:outer")
	pcInner := pcreg.Site("rt-test:inner")
	store, _ := collect(t, Config{Synchronous: true}, func(rt *omp.Runtime) {
		rt.Parallel(1, func(outer *omp.Thread) {
			outer.StoreF64(arr, 0, 1, pcOuter)
			outer.Parallel(2, func(in *omp.Thread) {
				in.StoreF64(arr, 2+in.ID(), 1, pcInner)
			})
			outer.StoreF64(arr, 1, 1, pcOuter)
		})
	})
	// Slot 0 is the outer thread and the inner master: it must carry an
	// outer fragment, an inner fragment, and the resumed outer fragment.
	events, positions, metas := readSlot(t, store, 0)
	if len(metas) != 3 {
		t.Fatalf("%d fragments, want 3:\n%s", len(metas), trace.FormatMetaTable(metas))
	}
	outer0, inner, outer1 := metas[0], metas[1], metas[2]
	if outer0.Level != 1 || inner.Level != 2 || outer1.Level != 1 {
		t.Fatalf("levels: %d %d %d", outer0.Level, inner.Level, outer1.Level)
	}
	if outer0.PID != outer1.PID || outer0.BID != outer1.BID {
		t.Fatal("resumed fragment has different interval identity")
	}
	if inner.PPID != outer0.PID {
		t.Fatalf("inner ppid %d, want %d", inner.PPID, outer0.PID)
	}
	if inner.ParentTID != 0 || inner.ParentBID != 0 {
		t.Fatalf("inner fork point %+v", inner)
	}
	// The inner fragment must contain exactly the inner master's access.
	var innerEvents int
	for i, pos := range positions {
		if pos >= inner.DataBegin && pos < inner.DataBegin+inner.DataSize {
			if events[i].PC != pcInner {
				t.Fatalf("outer access inside inner fragment: %+v", events[i])
			}
			innerEvents++
		}
	}
	if innerEvents != 1 {
		t.Fatalf("inner fragment holds %d events, want 1", innerEvents)
	}
}

func TestFlushOnBufferCap(t *testing.T) {
	space := memsim.NewSpace(nil)
	arr, _ := space.AllocF64(1)
	pc := pcreg.Site("rt-test:flood")
	const n = 1000
	for _, syncMode := range []bool{true, false} {
		store, col := collect(t, Config{Synchronous: syncMode, MaxEvents: 100}, func(rt *omp.Runtime) {
			rt.Parallel(1, func(th *omp.Thread) {
				for i := 0; i < n; i++ {
					th.LoadF64(arr, 0, pc)
				}
			})
		})
		stats := col.Stats()
		if stats.Flushes < n/100 {
			t.Fatalf("sync=%v: %d flushes, want >= %d", syncMode, stats.Flushes, n/100)
		}
		events, _, metas := readSlot(t, store, 0)
		if len(events) != n {
			t.Fatalf("sync=%v: %d events, want %d", syncMode, len(events), n)
		}
		if len(metas) != 1 {
			t.Fatalf("sync=%v: %d fragments, want 1", syncMode, len(metas))
		}
		if metas[0].DataSize == 0 {
			t.Fatal("fragment size 0")
		}
	}
}

func TestMutexEventsRecorded(t *testing.T) {
	space := memsim.NewSpace(nil)
	arr, _ := space.AllocF64(1)
	pc := pcreg.Site("rt-test:crit")
	store, _ := collect(t, Config{Synchronous: true}, func(rt *omp.Runtime) {
		rt.Parallel(1, func(th *omp.Thread) {
			th.Critical("c", func() {
				th.StoreF64(arr, 0, 1, pc)
			})
		})
	})
	events, _, _ := readSlot(t, store, 0)
	if len(events) != 3 {
		t.Fatalf("%d events, want acquire+access+release", len(events))
	}
	if events[0].Kind != trace.KindMutexAcquire ||
		events[1].Kind != trace.KindAccess ||
		events[2].Kind != trace.KindMutexRelease {
		t.Fatalf("event kinds: %v %v %v", events[0].Kind, events[1].Kind, events[2].Kind)
	}
	if events[0].Mutex != events[2].Mutex {
		t.Fatal("acquire/release mutex mismatch")
	}
}

func TestPCTablePersisted(t *testing.T) {
	pcs := pcreg.NewTable()
	id := pcs.Register("myfile.go:42")
	store, _ := collect(t, Config{Synchronous: true, PCs: pcs}, func(rt *omp.Runtime) {
		rt.Parallel(1, func(th *omp.Thread) {
			th.Write(0x1000, 8, id)
		})
	})
	aux, err := store.OpenAux(PCTableAux)
	if err != nil {
		t.Fatal(err)
	}
	got, sealed, err := pcreg.ReadTable(aux)
	if err != nil {
		t.Fatal(err)
	}
	if !sealed {
		t.Fatal("persisted pc table carries no end-of-run trailer")
	}
	if got.Name(id) != "myfile.go:42" {
		t.Fatalf("persisted name = %q", got.Name(id))
	}
}

func TestCloseIdempotent(t *testing.T) {
	store := trace.NewMemStore()
	col := New(store, Config{})
	omp.New(omp.WithTool(col)).Parallel(1, func(th *omp.Thread) {
		th.Write(0x10, 8, 1)
	})
	if err := col.Close(); err != nil {
		t.Fatal(err)
	}
	if err := col.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestCodecConfigurable(t *testing.T) {
	for _, codec := range []compress.Codec{compress.Raw{}, compress.LZSS{}, compress.NewFlate()} {
		store, _ := collect(t, Config{Synchronous: true, Codec: codec}, func(rt *omp.Runtime) {
			rt.Parallel(1, func(th *omp.Thread) {
				for i := 0; i < 500; i++ {
					th.Write(0x1000+uint64(i)*8, 8, 1)
				}
			})
		})
		events, _, _ := readSlot(t, store, 0)
		if len(events) != 500 {
			t.Fatalf("%s: %d events", codec.Name(), len(events))
		}
	}
}

func TestMemoryModel(t *testing.T) {
	per := MemoryModel(1)
	if per < 3_000_000 || per > 3_700_000 {
		t.Fatalf("per-thread model = %d, want ≈3.3 MB", per)
	}
	if MemoryModel(24) != 24*per {
		t.Fatal("model not linear in threads")
	}
}

func TestManyRegionsManySlots(t *testing.T) {
	// LULESH-like shape: many small regions reusing pooled slots.
	space := memsim.NewSpace(nil)
	arr, _ := space.AllocF64(64)
	pc := pcreg.Site("rt-test:many")
	store, col := collect(t, Config{}, func(rt *omp.Runtime) {
		for r := 0; r < 200; r++ {
			rt.Parallel(4, func(th *omp.Thread) {
				th.For(0, 64, func(i int) {
					th.LoadF64(arr, i, pc)
				})
			})
		}
	})
	slots, _ := store.Slots()
	if len(slots) != 4 {
		t.Fatalf("%d slots, want 4 (pooled)", len(slots))
	}
	var fragments int
	for _, slot := range slots {
		_, _, metas := readSlot(t, store, slot)
		fragments += len(metas)
		pids := map[uint64]bool{}
		for _, m := range metas {
			pids[m.PID] = true
		}
		if len(pids) < 2 {
			t.Fatalf("slot %d saw only %d regions; slot reuse broken", slot, len(pids))
		}
	}
	if fragments != 200*4 {
		t.Fatalf("%d fragments, want 800", fragments)
	}
	if col.Stats().Events != 200*64 {
		t.Fatalf("events = %d", col.Stats().Events)
	}
}

func BenchmarkCollectorAccess(b *testing.B) {
	store := trace.NewMemStore()
	col := New(store, Config{})
	rt := omp.New(omp.WithTool(col))
	pc := pcreg.Site("bench:access")
	b.ReportAllocs()
	rt.Parallel(1, func(th *omp.Thread) {
		for i := 0; i < b.N; i++ {
			th.Write(0x100000+uint64(i%4096)*8, 8, pc)
		}
	})
	b.StopTimer()
	col.Close()
}
