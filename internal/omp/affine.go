package omp

import (
	"fmt"
	"sync"
	"sync/atomic"

	"sword/internal/ilp"
	"sword/internal/memsim"
	"sword/internal/trace"
)

// Static worksharing certificates — the LLOV-style static half of solver
// avoidance. A workload declares a loop's memory accesses as affine shapes
// (base + stride·i + offset over a memsim array, with read/write
// classification and an optional per-iteration block span); ForAffine then
// proves, from the schedule's thread→chunk mapping alone, that distinct
// threads touch disjoint addresses, and publishes that proof to interested
// tools as a trace.LoopCert. A tool that arms the certificate (the SWORD
// collector, when static filtering is enabled) receives no per-access
// callback for captured accesses — the runtime just counts them — while
// every other tool keeps observing the full access stream, so
// happens-before baselines and test oracles are never blinded.
//
// Soundness contract: the per-thread dropped set is always a canonical
// lexicographic prefix (chunk pieces ascending, iterations ascending,
// block elements ascending) of the declared footprint, enforced by
// per-declaration span cursors. Anything the static proof does not cover —
// raw uncaptured accesses, lock acquisitions, barriers, task spawns or
// nested forks inside the loop, leftover state from earlier in the barrier
// interval — marks the certificate dirty; a dirty certificate is published
// with Clean=false and the analyzer rematerializes the counted prefix
// exactly instead of retiring the pair class.

// CertTool is the optional tool extension for static loop certificates.
// Tools that do not implement it simply keep receiving Access callbacks.
type CertTool interface {
	// LoopCertBegin fires on each team member entering a certified
	// worksharing loop, before any iteration runs. Returning true arms the
	// certificate for this tool: captured accesses are dropped (counted,
	// not delivered) instead of reported through Access. The tool may fill
	// its per-thread row in c.Threads (trace TID, fragment cut).
	LoopCertBegin(th *Thread, c *trace.LoopCert) bool
	// LoopCertEnd fires exactly once per certified loop, on the last team
	// member to finish iterating, after c's verdict (Clean) and dropped
	// counts are final and before the loop's closing barrier.
	LoopCertEnd(th *Thread, c *trace.LoopCert)
}

// maxCertIntersects bounds the constraint-solving work a single loop
// validation may spend; loops needing more are left uncertified.
const maxCertIntersects = 4096

// AffineRef names one declared access shape of an AffineLoop.
type AffineRef struct{ idx int }

// affineDecl pairs a certificate shape with the backing array it moves
// data through. Exactly one array pointer is set.
type affineDecl struct {
	f64    *memsim.F64
	i64    *memsim.I64
	i32    *memsim.I32
	length int64 // element count of the backing array
}

type affineKey struct {
	lo, hi int64
	nt     int
	sched  uint8
	chunk  int64
}

// AffineLoop is the reusable declaration of one worksharing loop's access
// shapes. Construct it once per loop site (package init or first use),
// declare every access the loop body performs, then run the loop with
// Thread.ForAffine. Declarations are frozen by the first run.
type AffineLoop struct {
	mu     sync.Mutex
	frozen bool
	decls  []affineDecl
	cdecls []trace.CertDecl
	cache  map[affineKey]bool
}

// NewAffineLoop returns an empty loop declaration.
func NewAffineLoop() *AffineLoop {
	return &AffineLoop{cache: make(map[affineKey]bool)}
}

func (l *AffineLoop) declare(d affineDecl, cd trace.CertDecl) AffineRef {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.frozen {
		panic("omp: AffineLoop declaration after first use")
	}
	if cd.Span == 0 {
		panic("omp: affine declaration with zero span")
	}
	l.decls = append(l.decls, d)
	l.cdecls = append(l.cdecls, cd)
	return AffineRef{idx: len(l.decls) - 1}
}

// ReadF64 declares a read of a[stride·i+offset].
func (l *AffineLoop) ReadF64(a *memsim.F64, stride, offset int64, pc uint64) AffineRef {
	return l.ReadF64Span(a, stride, offset, 1, pc)
}

// WriteF64 declares a write of a[stride·i+offset].
func (l *AffineLoop) WriteF64(a *memsim.F64, stride, offset int64, pc uint64) AffineRef {
	return l.WriteF64Span(a, stride, offset, 1, pc)
}

// ReadF64Span declares reads of the block a[stride·i+offset+k] for
// 0 ≤ k < span, accessed in ascending k order each iteration.
func (l *AffineLoop) ReadF64Span(a *memsim.F64, stride, offset int64, span int, pc uint64) AffineRef {
	return l.declare(affineDecl{f64: a, length: int64(a.Len())},
		trace.CertDecl{Base: a.Base(), Elem: 8, Stride: stride, Offset: offset, Span: uint64(span), Write: false, PC: pc})
}

// WriteF64Span declares writes of the block a[stride·i+offset+k] for
// 0 ≤ k < span.
func (l *AffineLoop) WriteF64Span(a *memsim.F64, stride, offset int64, span int, pc uint64) AffineRef {
	return l.declare(affineDecl{f64: a, length: int64(a.Len())},
		trace.CertDecl{Base: a.Base(), Elem: 8, Stride: stride, Offset: offset, Span: uint64(span), Write: true, PC: pc})
}

// ReadI64 declares a read of a[stride·i+offset].
func (l *AffineLoop) ReadI64(a *memsim.I64, stride, offset int64, pc uint64) AffineRef {
	return l.declare(affineDecl{i64: a, length: int64(a.Len())},
		trace.CertDecl{Base: a.Base(), Elem: 8, Stride: stride, Offset: offset, Span: 1, Write: false, PC: pc})
}

// WriteI64 declares a write of a[stride·i+offset].
func (l *AffineLoop) WriteI64(a *memsim.I64, stride, offset int64, pc uint64) AffineRef {
	return l.declare(affineDecl{i64: a, length: int64(a.Len())},
		trace.CertDecl{Base: a.Base(), Elem: 8, Stride: stride, Offset: offset, Span: 1, Write: true, PC: pc})
}

// ReadI32 declares a read of a[stride·i+offset].
func (l *AffineLoop) ReadI32(a *memsim.I32, stride, offset int64, pc uint64) AffineRef {
	return l.declare(affineDecl{i32: a, length: int64(a.Len())},
		trace.CertDecl{Base: a.Base(), Elem: 4, Stride: stride, Offset: offset, Span: 1, Write: false, PC: pc})
}

// WriteI32 declares a write of a[stride·i+offset].
func (l *AffineLoop) WriteI32(a *memsim.I32, stride, offset int64, pc uint64) AffineRef {
	return l.declare(affineDecl{i32: a, length: int64(a.Len())},
		trace.CertDecl{Base: a.Base(), Elem: 4, Stride: stride, Offset: offset, Span: 1, Write: true, PC: pc})
}

func (l *AffineLoop) freeze() {
	l.mu.Lock()
	l.frozen = true
	l.mu.Unlock()
}

// certProg maps one declaration restricted to a contiguous iteration piece
// [s, e) onto an ilp progression over addresses.
func certProg(d *trace.CertDecl, s, e int64) ilp.Progression {
	return certProgStep(d, s, e, 1)
}

// certProgStep maps one declaration restricted to the iteration
// progression s, s+step, … (last value < e) onto an ilp progression over
// addresses. step must be positive; step 1 is the contiguous-piece case.
func certProgStep(d *trace.CertDecl, s, e, step int64) ilp.Progression {
	width := d.Span * d.Elem
	iters := (e - s + step - 1) / step
	if d.Stride == 0 || iters == 1 {
		lo := s
		if d.Stride < 0 {
			lo = s + (iters-1)*step
		}
		return ilp.Progression{Base: d.Addr(lo, 0), Width: width}
	}
	lo := s
	stride := d.Stride * step
	if stride < 0 {
		lo = s + (iters-1)*step
		stride = -stride
	}
	return ilp.Progression{
		Base:   d.Addr(lo, 0),
		Stride: uint64(stride) * d.Elem,
		Count:  uint64(iters - 1),
		Width:  width,
	}
}

// validate decides whether the declared shapes are provably disjoint
// across threads under the given schedule. Verdicts are cached per
// (bounds, team size, schedule) tuple.
func (l *AffineLoop) validate(lo, hi int64, nt int, sched uint8, chunk int64) bool {
	key := affineKey{lo: lo, hi: hi, nt: nt, sched: sched, chunk: chunk}
	l.mu.Lock()
	if v, ok := l.cache[key]; ok {
		l.mu.Unlock()
		return v
	}
	l.mu.Unlock()
	v := l.validateSlow(lo, hi, nt, sched, chunk)
	l.mu.Lock()
	l.cache[key] = v
	l.mu.Unlock()
	return v
}

func (l *AffineLoop) validateSlow(lo, hi int64, nt int, sched uint8, chunk int64) bool {
	if hi <= lo {
		return true // empty loop: nothing to prove
	}
	// Every declared index must land inside its backing array — the data
	// plane would panic otherwise, and the address arithmetic below
	// assumes no wraparound.
	for j := range l.cdecls {
		d := &l.cdecls[j]
		loIdx := d.Stride*lo + d.Offset
		hiIdx := d.Stride*(hi-1) + d.Offset
		if loIdx > hiIdx {
			loIdx, hiIdx = hiIdx, loIdx
		}
		hiIdx += int64(d.Span) - 1
		if loIdx < 0 || hiIdx >= l.decls[j].length {
			return false
		}
	}
	if nt <= 1 {
		return true // a single thread cannot race with itself
	}
	shape := trace.LoopCert{Sched: sched, Chunk: chunk, Lo: lo, Hi: hi, NT: uint64(nt)}
	// Collapse each thread's footprint per declaration into address
	// progressions before intersecting. A static schedule is one
	// contiguous piece, but a cyclic schedule's pieces recur with period
	// nt*chunk, so the iterations at each intra-chunk position form a
	// single progression: min(chunk, pieces) runs per thread instead of
	// O(n/(nt*chunk)) pieces, which keeps chunk-1 cyclic loops over large
	// trip counts well inside the proof budget.
	nd := len(l.cdecls)
	runs := make([][]ilp.Progression, nt*nd)
	for t := 0; t < nt; t++ {
		pieces := shape.PiecesFor(uint64(t), nil)
		for j := range l.cdecls {
			d := &l.cdecls[j]
			rs := make([]ilp.Progression, 0, min(len(pieces), int(max(chunk, 1))))
			if c := max(chunk, 1); sched == trace.CertSchedCyclic && c < int64(len(pieces)) {
				period := int64(nt) * c
				first := lo + int64(t)*c
				for p := int64(0); p < c; p++ {
					if s := first + p; s < hi {
						rs = append(rs, certProgStep(d, s, hi, period))
					}
				}
			} else {
				for _, piece := range pieces {
					rs = append(rs, certProg(d, piece[0], piece[1]))
				}
			}
			runs[t*nd+j] = rs
		}
	}
	budget := maxCertIntersects
	for t1 := 0; t1 < nt; t1++ {
		for t2 := t1 + 1; t2 < nt; t2++ {
			for d1 := range l.cdecls {
				for d2 := range l.cdecls {
					if !l.cdecls[d1].Write && !l.cdecls[d2].Write {
						continue // two reads never race
					}
					for _, a := range runs[t1*nd+d1] {
						for _, b := range runs[t2*nd+d2] {
							budget--
							if budget < 0 {
								return false // too expensive to prove; stay dynamic
							}
							if _, hit := ilp.Intersect(a, b); hit {
								return false
							}
						}
					}
				}
			}
		}
	}
	return true
}

// teamCert is the team-wide rendezvous state of one certified loop
// instance. Certified loops always end with a barrier, so a single pooled
// slot per team suffices: by the time any thread can reach the next
// certified loop, every thread has finished with the previous one.
type teamCert struct {
	key      uint64 // barrier interval the loop arms in
	cert     trace.LoopCert
	dirty    atomic.Bool
	unarmed  atomic.Bool
	pending  atomic.Int64
	endTools []CertTool // tools armed by the creating thread
}

// certFor returns the team's certificate slot for the thread's current
// barrier interval, creating/resetting it on first arrival. The boolean
// reports whether this thread created the instance.
func (t *Thread) certFor(l *AffineLoop, lo, hi int64, sched uint8, chunk int64) (*teamCert, bool) {
	tm := t.team
	nt := tm.info.Size
	nd := len(l.cdecls)
	tm.mu.Lock()
	defer tm.mu.Unlock()
	tc := tm.curCert
	if tc != nil && tc.key == t.bid && tc.cert.BID == t.bid {
		return tc, false
	}
	if tc == nil {
		tc = &teamCert{}
		tm.curCert = tc
	}
	tc.key = t.bid
	c := &tc.cert
	c.PID, c.BID = tm.info.ID, t.bid
	c.Sched, c.Chunk, c.Lo, c.Hi, c.NT = sched, chunk, lo, hi, uint64(nt)
	c.Clean = false
	c.Decls = l.cdecls
	if cap(c.Threads) < nt {
		c.Threads = make([]trace.CertThread, nt)
	} else {
		c.Threads = c.Threads[:nt]
	}
	for i := range c.Threads {
		row := &c.Threads[i]
		row.TID, row.Cut = 0, 0
		if cap(row.Dropped) < nd {
			row.Dropped = make([]uint64, nd)
		} else {
			row.Dropped = row.Dropped[:nd]
			for j := range row.Dropped {
				row.Dropped[j] = 0
			}
		}
	}
	tc.dirty.Store(false)
	tc.unarmed.Store(false)
	tc.pending.Store(int64(nt))
	tc.endTools = tc.endTools[:0]
	return tc, true
}

// certState is one thread's view of the active certified loop; pooled on
// the Thread so steady-state certified loops allocate nothing.
type certState struct {
	l        *AffineLoop
	tc       *teamCert
	dropping bool
	iterOpen bool
	counts   []uint64 // aliases tc.cert.Threads[id].Dropped
	nextK    []uint64 // per-decl span cursor within the current iteration
	others   tools    // tools that still receive captured accesses
	pieces   [][2]int64
	it       AffineIter
}

// stop ends dropping for this thread (the already-dropped set stays a
// canonical prefix) and voids the certificate's clean verdict.
func (cs *certState) stop() {
	cs.dropping = false
	cs.tc.dirty.Store(true)
}

// advance opens iteration i: the previous iteration must have covered
// every declaration's full span, or the clean claim dies.
func (cs *certState) advance(i int64) {
	if cs.dropping {
		if cs.iterOpen {
			for r, k := range cs.nextK {
				if k != cs.l.cdecls[r].Span {
					cs.stop()
					break
				}
			}
		}
		for r := range cs.nextK {
			cs.nextK[r] = 0
		}
	}
	cs.iterOpen = true
	cs.it.i = i
}

// ForAffine runs a worksharing loop over [lo, hi) whose body accesses
// memory only through the declared affine shapes of l, with the default
// static schedule. When the loop certifies, tools that arm the
// certificate skip the captured accesses entirely.
func (t *Thread) ForAffine(l *AffineLoop, lo, hi int, body func(it *AffineIter)) {
	t.ForAffineOpt(l, lo, hi, ForOpts{}, body)
}

// ForAffineOpt is ForAffine with explicit schedule options. Dynamic and
// guided schedules, nowait loops, nested or task contexts, and shapes the
// solver cannot prove disjoint all fall back to the ordinary instrumented
// path — same accesses, no certificate.
func (t *Thread) ForAffineOpt(l *AffineLoop, lo, hi int, opts ForOpts, body func(it *AffineIter)) {
	l.freeze()
	sched, chunk, ok := certSchedule(opts)
	if !ok || t.cert != nil || !t.InParallel() ||
		t.team.info.Level != 1 || t.team.info.Async ||
		!t.rt.hasCertTools ||
		trace.CertBound(len(l.cdecls), t.NumThreads()) > trace.MaxCertRecordBytes ||
		!l.validate(int64(lo), int64(hi), t.NumThreads(), sched, chunk) {
		t.forAffinePlain(l, lo, hi, opts, body)
		return
	}

	cs := t.enterAffine(l, int64(lo), int64(hi), sched, chunk)
	it := &cs.it
	cs.pieces = cs.tc.cert.PiecesFor(uint64(t.id), cs.pieces[:0])
	for _, p := range cs.pieces {
		for i := p[0]; i < p[1]; i++ {
			cs.advance(i)
			body(it)
		}
	}
	t.exitAffine(cs)
	t.barrier(true)
}

// certSchedule maps loop options onto certificate schedules; only the
// deterministic static schedules can be certified.
func certSchedule(opts ForOpts) (sched uint8, chunk int64, ok bool) {
	if opts.NoWait {
		return 0, 0, false
	}
	switch opts.Schedule {
	case ScheduleStatic:
		return trace.CertSchedStatic, 0, true
	case ScheduleStaticCyclic:
		chunk = int64(opts.Chunk)
		if chunk <= 0 {
			chunk = 1
		}
		return trace.CertSchedCyclic, chunk, true
	default:
		return 0, 0, false
	}
}

// forAffinePlain executes the loop through the ordinary worksharing path:
// every captured access is reported like a hand-instrumented one.
func (t *Thread) forAffinePlain(l *AffineLoop, lo, hi int, opts ForOpts, body func(it *AffineIter)) {
	var it AffineIter
	it.t, it.l = t, l
	t.ForOpt(lo, hi, opts, func(i int) {
		it.i = int64(i)
		body(&it)
	})
}

// enterAffine arms the certificate on this thread: rendezvous with the
// team slot, offer the certificate to every CertTool, and decide whether
// this thread may drop.
func (t *Thread) enterAffine(l *AffineLoop, lo, hi int64, sched uint8, chunk int64) *certState {
	tc, created := t.certFor(l, lo, hi, sched, chunk)
	cs := t.certScratch
	if cs == nil {
		cs = &certState{}
		t.certScratch = cs
	}
	nd := len(l.cdecls)
	cs.l, cs.tc = l, tc
	cs.iterOpen = false
	cs.counts = tc.cert.Threads[t.id].Dropped
	if cap(cs.nextK) < nd {
		cs.nextK = make([]uint64, nd)
	} else {
		cs.nextK = cs.nextK[:nd]
	}
	cs.others = cs.others[:0]
	cs.it = AffineIter{t: t, l: l, cs: cs}

	dropping := true
	if !t.held.Empty() {
		// Dropped accesses rematerialize with an empty mutex set; holding
		// a lock across the loop would turn that into false races.
		dropping = false
		tc.dirty.Store(true)
	}
	if t.sinceBarrier != 0 || t.seq != 0 || len(t.pendingTasks) != 0 {
		// The barrier interval already has recorded content, live tasks,
		// or nested regions whose accesses are concurrent with the other
		// threads' intervals: its pair classes cannot be retired as empty.
		tc.dirty.Store(true)
	}
	for _, tool := range t.rt.tools {
		ct, isCert := tool.(CertTool)
		if !isCert {
			cs.others = append(cs.others, tool)
			continue
		}
		if ct.LoopCertBegin(t, &tc.cert) {
			if created {
				tc.endTools = append(tc.endTools, ct)
			}
		} else {
			// The tool declined: it keeps observing plainly, and the
			// certificate cannot claim its trace is empty.
			tc.unarmed.Store(true)
			dropping = false
			cs.others = append(cs.others, tool)
		}
	}
	cs.dropping = dropping
	t.cert = cs
	return cs
}

// exitAffine finishes this thread's participation; the last thread seals
// the verdict and publishes the certificate to the armed tools.
func (t *Thread) exitAffine(cs *certState) {
	if cs.dropping && cs.iterOpen {
		for r, k := range cs.nextK {
			if k != cs.l.cdecls[r].Span {
				cs.stop()
				break
			}
		}
	}
	tc := cs.tc
	t.cert = nil
	cs.tc = nil
	cs.counts = nil
	if tc.pending.Add(-1) == 0 {
		c := &tc.cert
		c.Clean = !tc.dirty.Load() && !tc.unarmed.Load()
		for _, ct := range tc.endTools {
			ct.LoopCertEnd(t, c)
		}
	}
}

// AffineIter is the loop body's handle for one iteration: it exposes the
// iteration index and the declared accessors. Do not retain it past the
// body call.
type AffineIter struct {
	t  *Thread
	l  *AffineLoop
	cs *certState // nil on the plain fallback path
	i  int64
}

// I returns the current iteration index.
func (it *AffineIter) I() int { return int(it.i) }

// Thread returns the executing thread.
func (it *AffineIter) Thread() *Thread { return it.t }

// index computes and bounds-checks the array index of element k of the
// declared block at the current iteration.
func (it *AffineIter) index(cd *trace.CertDecl, k int) int64 {
	if uint64(k) >= cd.Span {
		panic(fmt.Sprintf("omp: affine block element %d outside declared span %d", k, cd.Span))
	}
	return cd.Stride*it.i + cd.Offset + int64(k)
}

// report delivers (or drops) the instrumented access for element k of
// declaration r at the current iteration.
func (it *AffineIter) report(r int, cd *trace.CertDecl, k uint64, write bool) {
	if cs := it.cs; cs != nil && cs.dropping {
		if k == cs.nextK[r] {
			cs.nextK[r]++
			cs.counts[r]++
			if len(cs.others) > 0 {
				cs.others.access(it.t, cd.Addr(it.i, k), uint8(cd.Elem), write, false, cd.PC)
			}
			return
		}
		// Out of canonical order: keep the dropped prefix, record the
		// rest plainly.
		cs.stop()
	}
	if write {
		it.t.Write(cd.Addr(it.i, k), uint8(cd.Elem), cd.PC)
	} else {
		it.t.Read(cd.Addr(it.i, k), uint8(cd.Elem), cd.PC)
	}
}

func (it *AffineIter) declF64(r AffineRef, write bool) (*affineDecl, *trace.CertDecl) {
	d := &it.l.decls[r.idx]
	cd := &it.l.cdecls[r.idx]
	if d.f64 == nil {
		panic("omp: affine ref does not name an F64 declaration")
	}
	if cd.Write != write {
		panic("omp: affine access direction does not match its declaration")
	}
	return d, cd
}

// LoadF64 reads the declared element at the current iteration (k = 0).
func (it *AffineIter) LoadF64(r AffineRef) float64 { return it.LoadF64At(r, 0) }

// LoadF64At reads block element k of the declared span.
func (it *AffineIter) LoadF64At(r AffineRef, k int) float64 {
	d, cd := it.declF64(r, false)
	idx := it.index(cd, k)
	it.report(r.idx, cd, uint64(k), false)
	return loadWord(&d.f64.Data[idx])
}

// StoreF64 writes the declared element at the current iteration (k = 0).
func (it *AffineIter) StoreF64(r AffineRef, v float64) { it.StoreF64At(r, 0, v) }

// StoreF64At writes block element k of the declared span.
func (it *AffineIter) StoreF64At(r AffineRef, k int, v float64) {
	d, cd := it.declF64(r, true)
	idx := it.index(cd, k)
	it.report(r.idx, cd, uint64(k), true)
	storeWord(&d.f64.Data[idx], v)
}

// LoadI64 reads the declared element at the current iteration.
func (it *AffineIter) LoadI64(r AffineRef) int64 {
	d := &it.l.decls[r.idx]
	cd := &it.l.cdecls[r.idx]
	if d.i64 == nil {
		panic("omp: affine ref does not name an I64 declaration")
	}
	if cd.Write {
		panic("omp: affine access direction does not match its declaration")
	}
	idx := it.index(cd, 0)
	it.report(r.idx, cd, 0, false)
	return atomic.LoadInt64(&d.i64.Data[idx])
}

// StoreI64 writes the declared element at the current iteration.
func (it *AffineIter) StoreI64(r AffineRef, v int64) {
	d := &it.l.decls[r.idx]
	cd := &it.l.cdecls[r.idx]
	if d.i64 == nil {
		panic("omp: affine ref does not name an I64 declaration")
	}
	if !cd.Write {
		panic("omp: affine access direction does not match its declaration")
	}
	idx := it.index(cd, 0)
	it.report(r.idx, cd, 0, true)
	atomic.StoreInt64(&d.i64.Data[idx], v)
}

// LoadI32 reads the declared element at the current iteration.
func (it *AffineIter) LoadI32(r AffineRef) int32 {
	d := &it.l.decls[r.idx]
	cd := &it.l.cdecls[r.idx]
	if d.i32 == nil {
		panic("omp: affine ref does not name an I32 declaration")
	}
	if cd.Write {
		panic("omp: affine access direction does not match its declaration")
	}
	idx := it.index(cd, 0)
	it.report(r.idx, cd, 0, false)
	return atomic.LoadInt32(&d.i32.Data[idx])
}

// StoreI32 writes the declared element at the current iteration.
func (it *AffineIter) StoreI32(r AffineRef, v int32) {
	d := &it.l.decls[r.idx]
	cd := &it.l.cdecls[r.idx]
	if d.i32 == nil {
		panic("omp: affine ref does not name an I32 declaration")
	}
	if !cd.Write {
		panic("omp: affine access direction does not match its declaration")
	}
	idx := it.index(cd, 0)
	it.report(r.idx, cd, 0, true)
	atomic.StoreInt32(&d.i32.Data[idx], v)
}

// Certificate dirty/stop hooks, called from the runtime's event sites.

// certRaw notes an uncaptured instrumented access while a certificate is
// armed: the access is recorded plainly, so the loop's trace is not empty
// and the clean claim dies; the dropped prefix remains exact.
func (t *Thread) certRaw() {
	// Load before store: the flag is team-shared, and an unconditional
	// store on every raw access would bounce its cache line between the
	// team's threads.
	if cs := t.cert; cs != nil && !cs.tc.dirty.Load() {
		cs.tc.dirty.Store(true)
	}
}

// certStop ends dropping on this thread: barriers, task spawns and nested
// forks restructure the interval (or, for lock acquisitions, change the
// mutex context) in ways the certificate's rematerialization cannot
// represent, so everything after the event is recorded plainly.
func (t *Thread) certStop() {
	if cs := t.cert; cs != nil {
		cs.stop()
	}
}
