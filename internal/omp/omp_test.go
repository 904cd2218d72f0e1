package omp

import (
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"sword/internal/memsim"
	"sword/internal/osl"
	"sword/internal/trace"
)

// recordingTool captures callbacks for structural assertions.
type recordingTool struct {
	NopTool
	mu       sync.Mutex
	accesses []recordedAccess
	regions  []RegionInfo
	barriers int
	begins   int
	ends     int
	mutexOps int
}

type recordedAccess struct {
	slot   int
	addr   uint64
	size   uint8
	write  bool
	atomic bool
	pc     uint64
	held   trace.MutexSet
	tid    int
	region uint64
	bid    uint64
	label  string
}

func (r *recordingTool) Access(th *Thread, addr uint64, size uint8, write, atomic bool, pc uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.accesses = append(r.accesses, recordedAccess{
		slot: th.Slot(), addr: addr, size: size, write: write, atomic: atomic,
		pc: pc, held: th.Held(), tid: th.ID(), region: th.Region().ID,
		bid: th.BID(), label: th.Label().String(),
	})
}

func (r *recordingTool) RegionFork(_ *Thread, info RegionInfo) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.regions = append(r.regions, info)
}

func (r *recordingTool) BarrierDepart(*Thread, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.barriers++
}

func (r *recordingTool) ParallelBegin(*Thread) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.begins++
}

func (r *recordingTool) ParallelEnd(*Thread) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.ends++
}

func (r *recordingTool) MutexAcquired(*Thread, uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.mutexOps++
}

func TestParallelBasics(t *testing.T) {
	rt := New()
	var mu sync.Mutex
	ids := map[int]bool{}
	var labels []string
	rt.Parallel(4, func(th *Thread) {
		mu.Lock()
		defer mu.Unlock()
		ids[th.ID()] = true
		labels = append(labels, th.Label().String())
		if th.NumThreads() != 4 {
			t.Errorf("NumThreads = %d", th.NumThreads())
		}
		if th.Level() != 1 {
			t.Errorf("Level = %d", th.Level())
		}
		if !th.InParallel() {
			t.Error("InParallel false inside region")
		}
	})
	if len(ids) != 4 {
		t.Fatalf("saw %d distinct ids, want 4", len(ids))
	}
	sort.Strings(labels)
	want := []string{"[0,1][0,4]", "[0,1][1,4]", "[0,1][2,4]", "[0,1][3,4]"}
	for i := range want {
		if labels[i] != want[i] {
			t.Fatalf("labels = %v", labels)
		}
	}
}

func TestNestedLabelsFigure2(t *testing.T) {
	rt := New()
	var mu sync.Mutex
	inner := map[string]bool{}
	rt.Parallel(2, func(outer *Thread) {
		outer.Parallel(2, func(in *Thread) {
			mu.Lock()
			inner[in.Label().String()] = true
			mu.Unlock()
		})
	})
	for _, want := range []string{
		"[0,1][0,2][0,2]", "[0,1][0,2][1,2]",
		"[0,1][1,2][0,2]", "[0,1][1,2][1,2]",
	} {
		if !inner[want] {
			t.Errorf("missing inner label %s; got %v", want, inner)
		}
	}
	// Cross-region labels must be concurrent per the OSL predicate.
	a, _ := osl.Parse("[0,1][0,2][0,2]")
	b, _ := osl.Parse("[0,1][1,2][1,2]")
	if !osl.Concurrent(a, b) {
		t.Fatal("nested sibling-region labels not concurrent")
	}
}

func TestBarrierAdvancesState(t *testing.T) {
	rt := New()
	var mu sync.Mutex
	type snap struct{ bid0, bid1 uint64 }
	var snaps []snap
	rt.Parallel(2, func(th *Thread) {
		b0 := th.BID()
		th.Barrier()
		b1 := th.BID()
		if th.Label().Epoch() != 1 {
			t.Errorf("epoch after one barrier = %d", th.Label().Epoch())
		}
		mu.Lock()
		snaps = append(snaps, snap{b0, b1})
		mu.Unlock()
	})
	for _, s := range snaps {
		if s.bid0 != 0 || s.bid1 != 1 {
			t.Fatalf("bids %+v", s)
		}
	}
}

func TestBarrierInCriticalPanics(t *testing.T) {
	rt := New()
	defer func() {
		if recover() == nil {
			t.Fatal("barrier inside critical did not panic")
		}
	}()
	rt.Parallel(1, func(th *Thread) {
		th.Critical("c", func() { th.Barrier() })
	})
}

func TestForSchedulesCoverIterationSpace(t *testing.T) {
	for _, opts := range []ForOpts{
		{},
		{Schedule: ScheduleStaticCyclic, Chunk: 3},
		{Schedule: ScheduleDynamic, Chunk: 2},
		{Schedule: ScheduleGuided},
		{NoWait: true},
		{Schedule: ScheduleDynamic, Chunk: 5, NoWait: true},
	} {
		rt := New()
		const n = 1000
		counts := make([]atomic.Int32, n)
		rt.Parallel(5, func(th *Thread) {
			th.ForOpt(0, n, opts, func(i int) {
				counts[i].Add(1)
			})
		})
		for i := range counts {
			if c := counts[i].Load(); c != 1 {
				t.Fatalf("%v: iteration %d ran %d times", opts, i, c)
			}
		}
	}
}

func TestForEmptyAndTinyRanges(t *testing.T) {
	rt := New()
	rt.Parallel(8, func(th *Thread) {
		ran := 0
		th.For(5, 5, func(i int) { ran++ })
		if ran != 0 {
			t.Errorf("empty range ran %d iterations", ran)
		}
		th.For(0, 3, func(i int) {}) // fewer iterations than threads
	})
}

func TestStaticDeterministicPartition(t *testing.T) {
	rt := New()
	var mu sync.Mutex
	assign := map[int]int{}
	rt.Parallel(4, func(th *Thread) {
		th.For(0, 10, func(i int) {
			mu.Lock()
			assign[i] = th.ID()
			mu.Unlock()
		})
	})
	// 10 iterations over 4 threads: 3,3,2,2 contiguous blocks.
	want := map[int]int{0: 0, 1: 0, 2: 0, 3: 1, 4: 1, 5: 1, 6: 2, 7: 2, 8: 3, 9: 3}
	for i, tid := range want {
		if assign[i] != tid {
			t.Fatalf("assign = %v, want %v", assign, want)
		}
	}
}

func TestSingleRunsOnce(t *testing.T) {
	rt := New()
	var n atomic.Int32
	rt.Parallel(6, func(th *Thread) {
		for k := 0; k < 10; k++ {
			th.Single(func() { n.Add(1) })
		}
	})
	if n.Load() != 10 {
		t.Fatalf("single bodies ran %d times, want 10", n.Load())
	}
}

func TestSingleNoWaitRunsOnce(t *testing.T) {
	rt := New()
	var n atomic.Int32
	rt.Parallel(4, func(th *Thread) {
		th.SingleNoWait(func() { n.Add(1) })
		th.Barrier()
	})
	if n.Load() != 1 {
		t.Fatalf("single ran %d times", n.Load())
	}
}

func TestMasterOnlyThreadZero(t *testing.T) {
	rt := New()
	var ran atomic.Int32
	rt.Parallel(4, func(th *Thread) {
		th.Master(func() {
			ran.Add(1)
			if th.ID() != 0 {
				t.Errorf("master ran on thread %d", th.ID())
			}
		})
	})
	if ran.Load() != 1 {
		t.Fatalf("master ran %d times", ran.Load())
	}
}

func TestSectionsEachOnce(t *testing.T) {
	rt := New()
	var counts [5]atomic.Int32
	var bodies []func()
	for i := range counts {
		i := i
		bodies = append(bodies, func() { counts[i].Add(1) })
	}
	rt.Parallel(3, func(th *Thread) {
		th.Sections(bodies...)
	})
	for i := range counts {
		if c := counts[i].Load(); c != 1 {
			t.Fatalf("section %d ran %d times", i, c)
		}
	}
}

func TestReduce(t *testing.T) {
	rt := New()
	var mu sync.Mutex
	var results []float64
	rt.Parallel(7, func(th *Thread) {
		got := th.ReduceF64(float64(th.ID()+1), func(a, b float64) float64 { return a + b })
		mu.Lock()
		results = append(results, got)
		mu.Unlock()
		n := th.ReduceI64(int64(th.ID()), func(a, b int64) int64 { return max(a, b) })
		if n != 6 {
			t.Errorf("ReduceI64 max = %d", n)
		}
	})
	for _, r := range results {
		if r != 28 { // 1+2+...+7
			t.Fatalf("reduce results %v", results)
		}
	}
}

func TestCriticalMutualExclusion(t *testing.T) {
	rt := New()
	counter := 0
	rt.Parallel(8, func(th *Thread) {
		for i := 0; i < 1000; i++ {
			th.Critical("c", func() { counter++ })
		}
	})
	if counter != 8000 {
		t.Fatalf("counter = %d, want 8000 (critical not exclusive)", counter)
	}
}

func TestCriticalNamesDistinct(t *testing.T) {
	rt := New()
	a := rt.criticalLock("a")
	b := rt.criticalLock("b")
	if a == b || a.ID() == b.ID() {
		t.Fatal("distinct critical names share a lock")
	}
	if rt.criticalLock("a") != a {
		t.Fatal("critical lock not cached")
	}
}

func TestHeldSetTracksLocks(t *testing.T) {
	rt := New()
	l1 := rt.NewLock()
	l2 := rt.NewLock()
	rt.Parallel(1, func(th *Thread) {
		if !th.Held().Empty() {
			t.Error("held set not empty initially")
		}
		th.Acquire(l1)
		th.Acquire(l2)
		if !th.Held().Has(l1.ID()) || !th.Held().Has(l2.ID()) {
			t.Error("held set missing lock")
		}
		th.Release(l2)
		if th.Held().Has(l2.ID()) || !th.Held().Has(l1.ID()) {
			t.Error("held set wrong after release")
		}
		th.Release(l1)
	})
}

func TestReleaseUnheldPanics(t *testing.T) {
	rt := New()
	l := rt.NewLock()
	defer func() {
		if recover() == nil {
			t.Fatal("release of unheld lock did not panic")
		}
	}()
	rt.Parallel(1, func(th *Thread) { th.Release(l) })
}

func TestAccessCallbacksCarryContext(t *testing.T) {
	rec := &recordingTool{}
	rt := New(WithTool(rec))
	space := memsim.NewSpace(nil)
	arr, err := space.AllocF64(16)
	if err != nil {
		t.Fatal(err)
	}
	pcLoad := Site("test:load")
	pcStore := Site("test:store")
	lock := rt.NewLock()
	rt.Parallel(2, func(th *Thread) {
		v := th.LoadF64(arr, th.ID(), pcLoad)
		th.StoreF64(arr, th.ID(), v+1, pcStore)
		th.WithLock(lock, func() {
			th.StoreF64(arr, 8, 1, pcStore)
		})
		th.AtomicAddF64(arr, 9, 1, pcStore)
	})
	if arr.Data[0] != 1 || arr.Data[1] != 1 || arr.Data[9] != 2 {
		t.Fatalf("data plane wrong: %v", arr.Data[:10])
	}
	var lockedWrites, atomics int
	for _, a := range rec.accesses {
		if a.size != 8 {
			t.Errorf("access size %d", a.size)
		}
		if a.addr == arr.Addr(8) {
			if !a.held.Has(lock.ID()) {
				t.Error("locked write missing lock in held set")
			}
			lockedWrites++
		}
		if a.atomic {
			atomics++
		}
	}
	if lockedWrites != 2 || atomics != 2 {
		t.Fatalf("lockedWrites=%d atomics=%d, want 2 and 2", lockedWrites, atomics)
	}
	if rec.begins != 2 || rec.ends != 2 || rec.mutexOps != 2 {
		t.Fatalf("begins=%d ends=%d mutexOps=%d", rec.begins, rec.ends, rec.mutexOps)
	}
}

func TestSequentialAccessesNotInstrumented(t *testing.T) {
	rec := &recordingTool{}
	rt := New(WithTool(rec))
	space := memsim.NewSpace(nil)
	arr, _ := space.AllocF64(4)
	rt.Run(func(initial *Thread) {
		initial.StoreF64(arr, 0, 1, Site("seq:store"))
		initial.Parallel(2, func(th *Thread) {
			th.LoadF64(arr, 0, Site("par:load"))
		})
		initial.LoadF64(arr, 0, Site("seq:load"))
	})
	for _, a := range rec.accesses {
		if a.write {
			t.Fatalf("sequential store was instrumented: %+v", a)
		}
	}
	if len(rec.accesses) != 2 {
		t.Fatalf("recorded %d accesses, want 2 parallel loads", len(rec.accesses))
	}
}

func TestRegionInfoLineage(t *testing.T) {
	rec := &recordingTool{}
	rt := New(WithTool(rec))
	rt.Parallel(2, func(outer *Thread) {
		if outer.ID() == 1 {
			outer.Parallel(2, func(*Thread) {})
			outer.Parallel(2, func(*Thread) {})
		}
		outer.Barrier()
		if outer.ID() == 1 {
			outer.Parallel(3, func(*Thread) {})
		}
	})
	if len(rec.regions) != 4 {
		t.Fatalf("forked %d regions, want 4", len(rec.regions))
	}
	root := rec.regions[0]
	if root.ParentID != trace.NoParent || root.Level != 1 || root.Size != 2 {
		t.Fatalf("root region %+v", root)
	}
	var pre, post []RegionInfo
	for _, r := range rec.regions[1:] {
		if r.ParentID != root.ID || r.ParentTID != 1 || r.Level != 2 {
			t.Fatalf("nested region %+v", r)
		}
		if r.ParentBID == 0 {
			pre = append(pre, r)
		} else {
			post = append(post, r)
		}
	}
	if len(pre) != 2 || len(post) != 1 {
		t.Fatalf("pre=%d post=%d regions", len(pre), len(post))
	}
	if pre[0].Seq == pre[1].Seq {
		t.Fatal("sibling regions share a Seq")
	}
	if post[0].Seq != 0 {
		t.Fatalf("post-barrier region Seq = %d, want 0 (reset at barrier)", post[0].Seq)
	}
}

func TestSlotPoolBoundedAndReused(t *testing.T) {
	rt := New()
	for i := 0; i < 5; i++ {
		rt.Parallel(4, func(th *Thread) {})
	}
	if got := rt.MaxSlot(); got != 4 {
		t.Fatalf("MaxSlot = %d, want 4 (slots must be pooled)", got)
	}
	// Nested: 2 outer × (1 inner master shares + 1 new worker) = up to 4.
	rt2 := New()
	rt2.Parallel(2, func(th *Thread) {
		th.Parallel(2, func(*Thread) {})
	})
	if got := rt2.MaxSlot(); got > 4 {
		t.Fatalf("nested MaxSlot = %d, want <= 4", got)
	}
}

func TestMasterSharesSlotWithParent(t *testing.T) {
	rt := New()
	rt.Parallel(1, func(outer *Thread) {
		outerSlot := outer.Slot()
		outer.Parallel(2, func(in *Thread) {
			if in.ID() == 0 && in.Slot() != outerSlot {
				t.Errorf("inner master slot %d != parent slot %d", in.Slot(), outerSlot)
			}
			if in.ID() == 1 && in.Slot() == outerSlot {
				t.Error("inner worker shares parent slot")
			}
		})
	})
}

func TestSequencerForcesOrder(t *testing.T) {
	rt := New()
	seq := NewSequencer()
	var order []int
	var mu sync.Mutex
	rt.Parallel(2, func(th *Thread) {
		if th.ID() == 0 {
			seq.Do(0, func() { mu.Lock(); order = append(order, 0); mu.Unlock() })
			seq.Do(2, func() { mu.Lock(); order = append(order, 2); mu.Unlock() })
		} else {
			seq.Do(1, func() { mu.Lock(); order = append(order, 1); mu.Unlock() })
			seq.Do(3, func() { mu.Lock(); order = append(order, 3); mu.Unlock() })
		}
	})
	for i, v := range order {
		if i != v {
			t.Fatalf("order = %v", order)
		}
	}
}

func TestZeroThreadsPanics(t *testing.T) {
	rt := New()
	defer func() {
		if recover() == nil {
			t.Fatal("Parallel(0) did not panic")
		}
	}()
	rt.Parallel(0, func(*Thread) {})
}

func TestHereAndSite(t *testing.T) {
	pc1 := Here()
	pc2 := Here()
	if pc1 == pc2 {
		t.Fatal("distinct lines interned to same pc")
	}
	if Site("x") != Site("x") {
		t.Fatal("Site not idempotent")
	}
	if rt := New(); rt.PCs().Name(pc1) == "" {
		t.Fatal("pc name empty")
	}
}

func BenchmarkParallelForStatic(b *testing.B) {
	rt := New()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rt.Parallel(4, func(th *Thread) {
			th.For(0, 10000, func(i int) {})
		})
	}
}

func BenchmarkInstrumentedAccess(b *testing.B) {
	rec := &recordingTool{}
	_ = rec
	rt := New() // no tool: measures instrumentation fast path
	space := memsim.NewSpace(nil)
	arr, _ := space.AllocF64(1024)
	pc := Site("bench")
	b.ReportAllocs()
	rt.Parallel(1, func(th *Thread) {
		for i := 0; i < b.N; i++ {
			th.StoreF64(arr, i&1023, 1, pc)
		}
	})
}

func TestForOrderedExecutesInOrder(t *testing.T) {
	rt := New()
	var order []int
	var mu sync.Mutex
	rt.Parallel(4, func(th *Thread) {
		th.ForOrdered(0, 64, ForOpts{}, func(i int, ordered func(func())) {
			ordered(func() {
				mu.Lock()
				order = append(order, i)
				mu.Unlock()
			})
		})
	})
	if len(order) != 64 {
		t.Fatalf("ordered ran %d times", len(order))
	}
	for i, v := range order {
		if i != v {
			t.Fatalf("ordered sections out of order: %v", order[:i+1])
		}
	}
}

func TestForOrderedCyclicSchedule(t *testing.T) {
	rt := New()
	var order []int
	var mu sync.Mutex
	rt.Parallel(3, func(th *Thread) {
		th.ForOrdered(0, 30, ForOpts{Schedule: ScheduleStaticCyclic, Chunk: 2}, func(i int, ordered func(func())) {
			ordered(func() {
				mu.Lock()
				order = append(order, i)
				mu.Unlock()
			})
		})
	})
	for i, v := range order {
		if i != v {
			t.Fatalf("cyclic ordered out of order at %d: %v", i, order)
		}
	}
}

func TestForOrderedSectionIsToolVisibleMutex(t *testing.T) {
	rec := &recordingTool{}
	rt := New(WithTool(rec))
	space := memsim.NewSpace(nil)
	arr, _ := space.AllocF64(16)
	pc := Site("ordered:dep")
	rt.Parallel(2, func(th *Thread) {
		th.ForOrdered(1, 8, ForOpts{}, func(i int, ordered func(func())) {
			ordered(func() {
				v := th.LoadF64(arr, i-1, pc)
				th.StoreF64(arr, i, v+1, pc)
			})
		})
	})
	rec.mu.Lock()
	defer rec.mu.Unlock()
	for _, a := range rec.accesses {
		if a.held.Empty() {
			t.Fatalf("access inside ordered section holds no mutex: %+v", a)
		}
	}
	if rec.mutexOps != 7 {
		t.Fatalf("mutex acquisitions = %d, want 7 (one per iteration)", rec.mutexOps)
	}
}

// TestCriticalFirstUseDrawsOneID: threads racing into a critical section
// for the first time create one lock between them, so the section's mutex
// id, and the trace that records it, does not depend on the schedule.
func TestCriticalFirstUseDrawsOneID(t *testing.T) {
	for round := 0; round < 200; round++ {
		rtm := New()
		var start, done sync.WaitGroup
		start.Add(1)
		for g := 0; g < 8; g++ {
			done.Add(1)
			go func() {
				defer done.Done()
				start.Wait()
				rtm.criticalLock("c")
			}()
		}
		start.Done()
		done.Wait()
		if n := rtm.MutexCount(); n != 1 {
			t.Fatalf("round %d: %d mutex ids drawn for one critical section", round, n)
		}
	}
}
