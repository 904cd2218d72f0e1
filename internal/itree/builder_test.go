package itree

import (
	"fmt"
	"math/rand"
	"testing"

	"sword/internal/trace"
)

// payload renders the comparable payload of a run, including Count —
// stricter than String, which omits it.
func payload(r *Run) string {
	return fmt.Sprintf("%s x%d m=%x", r, r.Count, uint64(r.Mutexes))
}

// randomStream produces an access stream mixing the patterns the analyzer
// sees: ascending sweeps, descending sweeps, repeated same-address
// accesses, interleaved streams with distinct attributes, and pure noise.
func randomStream(rng *rand.Rand, n int) []Access {
	var out []Access
	mkMutex := func() trace.MutexSet {
		var m trace.MutexSet
		for _, id := range []uint64{1, 5, 9} {
			if rng.Intn(4) == 0 {
				m = m.With(id)
			}
		}
		return m
	}
	for len(out) < n {
		pc := uint64(rng.Intn(6))
		width := uint64(1 << rng.Intn(4))
		write := rng.Intn(2) == 0
		atomic := rng.Intn(8) == 0
		mu := mkMutex()
		base := uint64(rng.Intn(4096))
		stride := uint64(rng.Intn(5)) // 0 stresses the repeat case
		count := 1 + rng.Intn(12)
		switch rng.Intn(4) {
		case 0: // ascending sweep
			for i := 0; i < count; i++ {
				out = append(out, Access{Addr: base + uint64(i)*stride,
					Width: width, Write: write, Atomic: atomic, PC: pc, Mutexes: mu})
			}
		case 1: // descending sweep — insert-time coalescing misses these
			for i := count - 1; i >= 0; i-- {
				out = append(out, Access{Addr: base + uint64(i)*stride,
					Width: width, Write: write, Atomic: atomic, PC: pc, Mutexes: mu})
			}
		case 2: // two interleaved streams (read+write of one array)
			for i := 0; i < count; i++ {
				a := Access{Addr: base + uint64(i)*stride, Width: width,
					Write: false, Atomic: atomic, PC: pc, Mutexes: mu}
				b := a
				b.Write = true
				b.PC = pc + 100
				out = append(out, a, b)
			}
		default: // noise
			out = append(out, Access{Addr: base, Width: width, Write: write,
				Atomic: atomic, PC: pc, Mutexes: mu})
		}
	}
	return out[:n]
}

// TestBuilderMatchesTree asserts the sort-based builder emits exactly the
// run that building a red-black tree and flattening it produces, with and
// without the Compact pass, over randomized access streams.
func TestBuilderMatchesTree(t *testing.T) {
	for _, compact := range []bool{true, false} {
		for seed := int64(0); seed < 40; seed++ {
			rng := rand.New(rand.NewSource(seed))
			stream := randomStream(rng, 50+rng.Intn(800))

			var tree Tree
			var b Builder
			for _, a := range stream {
				tree.Insert(a)
				b.Insert(a)
			}
			if compact {
				tree.Compact()
			}
			want := tree.Nodes()
			got, _ := b.Finish(compact)

			if len(got) != len(want) {
				t.Fatalf("compact=%v seed=%d: builder %d nodes, tree %d",
					compact, seed, len(got), len(want))
			}
			for i := range want {
				if payload(&got[i]) != payload(&want[i].Run) {
					t.Fatalf("compact=%v seed=%d node %d:\nbuilder %s\ntree    %s",
						compact, seed, i, payload(&got[i]), payload(&want[i].Run))
				}
			}
			if b.Accesses() != tree.Accesses() {
				t.Fatalf("accesses: builder %d tree %d", b.Accesses(), tree.Accesses())
			}
			if b.Len() != tree.Len() {
				t.Fatalf("len: builder %d tree %d", b.Len(), tree.Len())
			}
		}
	}
}

// TestBuilderSummary cross-checks the unit summary against a brute-force
// pass over the finished run.
func TestBuilderSummary(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(1000 + seed))
		var b Builder
		for _, a := range randomStream(rng, 200) {
			b.Insert(a)
		}
		run, sum := b.Finish(true)
		if len(run) == 0 {
			t.Fatal("empty run from non-empty stream")
		}
		wantLow, wantHigh := run[0].Low, uint64(0)
		anyWrite, allAtomic := false, true
		common := ^trace.MutexSet(0)
		for _, n := range run {
			if n.Low < wantLow {
				wantLow = n.Low
			}
			if e := n.LastByte(); e > wantHigh {
				wantHigh = e
			}
			anyWrite = anyWrite || n.Write
			allAtomic = allAtomic && n.Atomic
			common &= n.Mutexes
		}
		if sum.Low != wantLow || sum.High != wantHigh {
			t.Fatalf("bbox [%d,%d] want [%d,%d]", sum.Low, sum.High, wantLow, wantHigh)
		}
		if sum.AnyWrite != anyWrite || sum.AllAtomic != allAtomic || sum.CommonMutexes != common {
			t.Fatalf("summary %+v want write=%v atomic=%v common=%x",
				sum, anyWrite, allAtomic, uint64(common))
		}
		if sum.Bytes == 0 {
			t.Fatal("summary reports zero slab bytes")
		}
	}
}

// TestBuilderEmpty: Finish on an untouched builder yields an empty,
// inverted-bbox summary so the pre-filter can never match it.
func TestBuilderEmpty(t *testing.T) {
	var b Builder
	run, sum := b.Finish(true)
	if len(run) != 0 || b.Len() != 0 || b.Accesses() != 0 {
		t.Fatalf("expected empty run, got %d nodes", len(run))
	}
	if sum.Low <= sum.High {
		t.Fatalf("empty summary bbox [%d,%d] not inverted", sum.Low, sum.High)
	}
}

// TestBuilderReset: a reset builder behaves like a fresh one.
func TestBuilderReset(t *testing.T) {
	var b Builder
	rng := rand.New(rand.NewSource(7))
	for _, a := range randomStream(rng, 100) {
		b.Insert(a)
	}
	b.Finish(true)
	b.Reset()
	if b.Len() != 0 || b.Accesses() != 0 {
		t.Fatal("reset builder not empty")
	}
	b.Insert(Access{Addr: 8, Width: 4, Write: true, PC: 1})
	run, sum := b.Finish(true)
	if len(run) != 1 || sum.Low != 8 || !sum.AnyWrite {
		t.Fatalf("post-reset run wrong: %d nodes, sum %+v", len(run), sum)
	}
}

// BenchmarkRunBuild compares the two unit-construction paths on the
// strided sweep workload that dominates the analyzer front end.
func BenchmarkRunBuild(b *testing.B) {
	const accesses = 1 << 14
	stream := make([]Access, 0, accesses)
	// Four interleaved strided streams, like a stencil loop body.
	for i := 0; i < accesses/4; i++ {
		addr := uint64(i) * 8
		stream = append(stream,
			Access{Addr: addr, Width: 8, PC: 1},
			Access{Addr: addr + 8, Width: 8, PC: 2},
			Access{Addr: addr, Width: 8, Write: true, PC: 3},
			Access{Addr: 1 << 20, Width: 8, PC: 4},
		)
	}
	b.Run("tree", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var t Tree
			for _, a := range stream {
				t.Insert(a)
			}
			t.Compact()
			_ = t.Nodes()
		}
	})
	b.Run("builder", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var bld Builder
			for _, a := range stream {
				bld.Insert(a)
			}
			bld.Finish(true)
		}
	})
}

// runOp is one InsertRun call of a randomized run stream.
type runOp struct {
	a      Access
	stride int64
	count  uint64
}

// randomRuns produces run records over sites distinct sites (at most 12)
// and a narrow address range, so runs interleave with and continue each
// other the way decoded run records of several streams do. One site makes
// every recent run a coalescing candidate for every access.
func randomRuns(rng *rand.Rand, n, sites int, descending bool) []runOp {
	ops := make([]runOp, n)
	for i := range ops {
		site := rng.Intn(sites)
		stride := int64(rng.Intn(5))
		if descending && rng.Intn(2) == 0 {
			stride = -stride
		}
		count := uint64(1 + rng.Intn(10))
		addr := uint64(1024 + rng.Intn(512))
		ops[i] = runOp{
			a: Access{Addr: addr, Width: 8, Write: site&1 == 0,
				PC: uint64(site >> 2), Mutexes: trace.MutexSet(site >> 1 & 1)},
			stride: stride,
			count:  count,
		}
	}
	return ops
}

func expand(b *Builder, op runOp) {
	a := op.a
	for i := uint64(0); i < op.count; i++ {
		b.Insert(a)
		a.Addr += uint64(op.stride)
	}
}

// TestInsertRunMatchesExpansion: for non-negative strides, InsertRun must
// leave the builder in exactly the state Insert of the expanded accesses
// does — the same slab, run for run, and the same recent cache — whatever
// runs came before.
func TestInsertRunMatchesExpansion(t *testing.T) {
	for seed := int64(0); seed < 400; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var got, want Builder
		sites := 1
		if seed%2 == 1 {
			sites = 12
		}
		for i, op := range randomRuns(rng, 1+rng.Intn(60), sites, false) {
			got.InsertRun(op.a, op.stride, op.count)
			expand(&want, op)
			if got.accum != want.accum || got.nrecent != want.nrecent || got.recent != want.recent ||
				len(got.runs) != len(want.runs) {
				t.Fatalf("seed %d op %d (%+v): builder state diverged: %d runs, want %d",
					seed, i, op, len(got.runs), len(want.runs))
			}
			for j := range got.runs {
				if got.runs[j] != want.runs[j] {
					t.Fatalf("seed %d op %d (%+v): run %d = %s, want %s",
						seed, i, op, j, payload(&got.runs[j]), payload(&want.runs[j]))
				}
			}
		}
	}
}

// TestInsertRunFreshBuilder: a single run of any stride sign inserted into
// a fresh builder finishes (with compaction) into the same runs as its
// expansion.
func TestInsertRunFreshBuilder(t *testing.T) {
	for seed := int64(0); seed < 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		op := randomRuns(rng, 1, 12, true)[0]
		var got, want Builder
		got.InsertRun(op.a, op.stride, op.count)
		expand(&want, op)
		g, gs := got.Finish(true)
		w, ws := want.Finish(true)
		if len(g) != len(w) || gs.Low != ws.Low || gs.High != ws.High {
			t.Fatalf("seed %d (%+v): %d runs %+v, want %d runs %+v", seed, op, len(g), gs, len(w), ws)
		}
		for i := range g {
			if payload(&g[i]) != payload(&w[i]) {
				t.Fatalf("seed %d (%+v): run %d = %s, want %s", seed, op, i, payload(&g[i]), payload(&w[i]))
			}
		}
		if got.Accesses() != op.count {
			t.Fatalf("seed %d: Accesses() = %d, want %d", seed, got.Accesses(), op.count)
		}
	}
}

// TestInsertRunIsConstantTime: a long strided run lands in one slab entry
// without walking its accesses.
func TestInsertRunIsConstantTime(t *testing.T) {
	var b Builder
	b.InsertRun(Access{Addr: 0x1000, Width: 8, PC: 1}, 8, 1<<40)
	b.InsertRun(Access{Addr: 0x1000 + 1<<43, Width: 8, PC: 1}, 8, 1<<20)
	if len(b.runs) != 1 || b.runs[0].Count != 1<<40+1<<20 || b.runs[0].High != 0x1000+(1<<43)+(1<<20-1)*8 {
		t.Fatalf("runs = %+v", b.runs)
	}
}

// TestInsertRunYieldsToEarlierRun: a run that Insert probes first takes
// an access in the middle of a later run, so the run that took the first
// access cannot absorb the rest in one step. Case "single": a one-access
// run whose Low lies inside the range; case "strided": a run whose next
// step lands on the progression.
func TestInsertRunYieldsToEarlierRun(t *testing.T) {
	site := Access{Width: 8, PC: 1}
	at := func(addr uint64) Access { a := site; a.Addr = addr; return a }
	for name, earlier := range map[string][]uint64{
		"single":  {200},
		"strided": {296, 298}, // next step 300 = 116 + 23*8
	} {
		var got, want Builder
		for _, b := range []*Builder{&got, &want} {
			b.Insert(at(100))
			b.Insert(at(108)) // run [100,108] Δ8
			for _, addr := range earlier {
				b.Insert(at(addr)) // probed before the strided run
			}
		}
		got.InsertRun(at(116), 8, 30)
		expand(&want, runOp{a: at(116), stride: 8, count: 30})
		if len(got.runs) != len(want.runs) {
			t.Fatalf("%s: %d runs, want %d", name, len(got.runs), len(want.runs))
		}
		for i := range got.runs {
			if got.runs[i] != want.runs[i] {
				t.Fatalf("%s: run %d = %s, want %s", name, i, payload(&got.runs[i]), payload(&want.runs[i]))
			}
		}
	}
}
