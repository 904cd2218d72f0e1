// Package omp is the reproduction's OpenMP runtime substrate: fork-join
// parallel regions over goroutines with nested parallelism, barriers,
// worksharing loops, critical sections, locks, atomics, single/master
// constructs and reductions. Analysis tools observe executions through the
// Tool interface (the OMPT substitute) and workload kernels report memory
// accesses through the instrumented load/store helpers, replacing the
// paper's LLVM instrumentation pass.
//
// Tasking is intentionally unsupported, matching the paper's stated
// limitation (§III-C): offset-span labels cannot order tasks.
package omp

import (
	"fmt"
	"sync"
	"sync/atomic"

	"sword/internal/osl"
	"sword/internal/pcreg"
	"sword/internal/trace"
)

// RegionInfo describes one parallel region instance, as surfaced to tools
// and recorded (via the collector) into meta-data files.
type RegionInfo struct {
	ID        uint64 // unique region instance id (the paper's pid)
	ParentID  uint64 // parent region instance id; trace.NoParent at the root
	Size      int    // team size (the offset-span span)
	Level     uint32 // nesting level, 1 for outermost parallel regions
	ParentTID uint64 // thread id of the encountering thread in its region
	ParentBID uint64 // barrier interval of the encountering thread at the fork
	Seq       uint64 // index among regions forked from that same interval
	Async     bool   // an OpenMP task: the encountering thread does not wait
}

// Runtime executes OpenMP-style programs. Create one per analyzed run.
type Runtime struct {
	tools        tools
	hasCertTools bool // any tool implements CertTool (affine.go)
	slots        *slotPool
	regionSeq    atomic.Uint64
	mutexSeq     atomic.Uint64
	criticals    sync.Map   // name -> *Lock
	criticalMu   sync.Mutex // serializes first use of a critical name
	pcs          *pcreg.Table
}

// Option configures a Runtime.
type Option func(*Runtime)

// WithTool attaches an analysis tool; several tools may observe one run.
func WithTool(t Tool) Option {
	return func(r *Runtime) { r.tools = append(r.tools, t) }
}

// WithPCTable overrides the program-counter table (Default otherwise).
func WithPCTable(t *pcreg.Table) Option {
	return func(r *Runtime) { r.pcs = t }
}

// New returns a runtime with the given options.
func New(opts ...Option) *Runtime {
	r := &Runtime{slots: newSlotPool(), pcs: pcreg.Default}
	for _, o := range opts {
		o(r)
	}
	for _, t := range r.tools {
		if _, ok := t.(CertTool); ok {
			r.hasCertTools = true
		}
	}
	return r
}

// PCs returns the runtime's program-counter table.
func (r *Runtime) PCs() *pcreg.Table { return r.pcs }

// MaxSlot returns the highest thread slot ever assigned plus one — the
// number of per-thread logs a collector produced.
func (r *Runtime) MaxSlot() int { return r.slots.maxUsed() }

// Thread is the execution context of one OpenMP thread within a team.
// Exactly one goroutine uses a Thread; it is not safe to share.
type Thread struct {
	rt     *Runtime
	team   *team
	id     int
	slot   int
	label  osl.Label
	bid    uint64
	seq    uint64
	held   trace.MutexSet
	parent *Thread

	// Worksharing state.
	singleSeq  uint64
	sectionSeq uint64
	forSeq     uint64

	// Outstanding child tasks of this thread (spawn order).
	pendingTasks []taskHandle

	// barrierAction is the lazily built, reused last-arriver callback for
	// team barriers (see Thread.barrier).
	barrierAction func()

	// Static-certificate state (affine.go): the active certified loop,
	// the pooled per-thread scratch, and the count of instrumented
	// accesses recorded since the last barrier.
	cert         *certState
	certScratch  *certState
	sinceBarrier uint64
}

// Runtime returns the owning runtime.
func (t *Thread) Runtime() *Runtime { return t.rt }

// ID returns the thread's id within its team (0 = master).
func (t *Thread) ID() int { return t.id }

// NumThreads returns the team size.
func (t *Thread) NumThreads() int { return t.team.info.Size }

// Slot returns the thread's global log slot.
func (t *Thread) Slot() int { return t.slot }

// Label returns the thread's current offset-span label. The returned
// slice must not be modified.
func (t *Thread) Label() osl.Label { return t.label }

// BID returns the thread's current barrier interval id within its region.
func (t *Thread) BID() uint64 { return t.bid }

// Seq returns the number of nested regions this thread has forked in its
// current barrier interval.
func (t *Thread) Seq() uint64 { return t.seq }

// Region returns the thread's region descriptor.
func (t *Thread) Region() RegionInfo { return t.team.info }

// Level returns the nesting level (0 for the initial thread).
func (t *Thread) Level() int { return int(t.team.info.Level) }

// Parent returns the thread that forked this thread's team; for the
// initial thread it returns nil.
func (t *Thread) Parent() *Thread { return t.parent }

// Held returns the set of mutexes currently held.
func (t *Thread) Held() trace.MutexSet { return t.held }

// InParallel reports whether the thread is inside a parallel region; the
// initial thread outside any region is not.
func (t *Thread) InParallel() bool { return t.team.info.Level > 0 }

// team is one parallel region instance's thread team.
type team struct {
	info    RegionInfo
	barrier *teamBarrier
	tasks   *taskState

	mu         sync.Mutex
	singleDone map[uint64]bool
	sectionIdx map[uint64]*atomic.Int64
	forChunk   map[uint64]*atomic.Int64
	ordered    map[uint64]*orderedState
	reduceBuf  []float64
	reduceI64  []int64
	curCert    *teamCert // pooled certificate slot (affine.go)
}

// Run executes f on the runtime's initial thread: the sequential context
// that encounters parallel regions. Accesses made at this level are not
// instrumented (sequential code cannot race).
func (r *Runtime) Run(f func(*Thread)) {
	slot := r.slots.acquire()
	initial := &Thread{
		rt:    r,
		slot:  slot,
		label: osl.Root(),
		team: &team{
			info: RegionInfo{
				ID:       r.regionSeq.Add(1) - 1, // id 0: the implicit initial "region"
				ParentID: trace.NoParent,
				Size:     1,
				Level:    0,
			},
			tasks: &taskState{},
		},
	}
	defer r.slots.release(slot)
	f(initial)
}

// Parallel runs body on a fresh team of n threads forked from the initial
// thread, the common entry point for workloads:
// rt.Parallel(8, func(th *omp.Thread) { ... }).
func (r *Runtime) Parallel(n int, body func(*Thread)) {
	r.Run(func(initial *Thread) { initial.Parallel(n, body) })
}

// Parallel forks a nested team of n threads, each running body, and joins
// it. The encountering thread becomes the new team's master (thread 0) and
// an implicit barrier ends the region, per OpenMP semantics.
func (t *Thread) Parallel(n int, body func(*Thread)) {
	if n <= 0 {
		panic(fmt.Sprintf("omp: parallel region of %d threads", n))
	}
	info := RegionInfo{
		ID:        t.rt.regionSeq.Add(1) - 1,
		ParentID:  t.team.info.ID,
		Size:      n,
		Level:     t.team.info.Level + 1,
		ParentTID: uint64(t.id),
		ParentBID: t.bid,
		Seq:       t.seq,
	}
	if t.team.info.Level == 0 {
		info.ParentID = trace.NoParent
	}
	t.seq++
	t.certStop() // a nested fork splits the interval; stop dropping
	t.rt.tools.regionFork(t, info)

	tm := &team{
		info:       info,
		barrier:    newTeamBarrier(n),
		tasks:      &taskState{},
		singleDone: make(map[uint64]bool),
		sectionIdx: make(map[uint64]*atomic.Int64),
		forChunk:   make(map[uint64]*atomic.Int64),
		reduceBuf:  make([]float64, n),
		reduceI64:  make([]int64, n),
	}

	var wg sync.WaitGroup
	for i := 1; i < n; i++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			worker := &Thread{
				rt:     t.rt,
				team:   tm,
				id:     tid,
				slot:   t.rt.slots.acquire(),
				label:  t.label.Fork(uint64(tid), uint64(n)),
				parent: t,
			}
			defer t.rt.slots.release(worker.slot)
			worker.runMember(body)
		}(i)
	}
	// The encountering thread becomes the master, reusing its slot (the
	// same OS thread keeps writing the same log file, as with a real
	// OpenMP thread pool).
	master := &Thread{
		rt:     t.rt,
		team:   tm,
		id:     0,
		slot:   t.slot,
		label:  t.label.Fork(0, uint64(n)),
		parent: t,
		held:   t.held, // the encountering OS thread keeps its locks
	}
	master.runMember(body)
	wg.Wait()
	t.rt.tools.regionJoin(t, info)
}

func (t *Thread) runMember(body func(*Thread)) {
	t.rt.tools.threadBegin(t)
	t.rt.tools.parallelBegin(t)
	body(t)
	// Implicit barrier at region end.
	t.barrier(true)
	t.rt.tools.parallelEnd(t)
	t.rt.tools.threadEnd(t)
}

// Barrier executes an explicit team barrier.
func (t *Thread) Barrier() { t.barrier(false) }

func (t *Thread) barrier(implicit bool) {
	if !t.held.Empty() {
		panic("omp: barrier inside a critical section or lock")
	}
	t.certStop() // a barrier inside a certified loop body ends the interval
	t.rt.tools.barrierArrive(t, implicit)
	if t.barrierAction == nil {
		// Built once per thread — a fresh closure per call would allocate
		// on every certified loop's join barrier, a path the static filter
		// otherwise keeps allocation-free.
		t.barrierAction = func() {
			// Exactly one thread per episode runs this while the team is
			// parked: clear worksharing bookkeeping and complete the region's
			// outstanding tasks, which the OpenMP specification ties to
			// barriers.
			clear(t.team.singleDone)
			t.drainTasksAtBarrier()
		}
	}
	t.team.barrier.await(t.barrierAction)
	t.bid++
	t.seq = 0
	t.label = t.label.Barrier()
	t.pendingTasks = nil // all complete as of the barrier
	t.sinceBarrier = 0
	t.rt.tools.barrierDepart(t, implicit)
}

// teamBarrier is a generation (sense-counting) barrier.
type teamBarrier struct {
	mu    sync.Mutex
	cond  *sync.Cond
	size  int
	count int
	gen   uint64
}

func newTeamBarrier(n int) *teamBarrier {
	b := &teamBarrier{size: n}
	b.cond = sync.NewCond(&b.mu)
	return b
}

// await blocks until all team members arrive. The last arriver runs
// lastAction (if non-nil) before waking the others.
func (b *teamBarrier) await(lastAction func()) {
	b.mu.Lock()
	gen := b.gen
	b.count++
	if b.count == b.size {
		if lastAction != nil {
			lastAction()
		}
		b.count = 0
		b.gen++
		b.mu.Unlock()
		b.cond.Broadcast()
		return
	}
	for gen == b.gen {
		b.cond.Wait()
	}
	b.mu.Unlock()
}

// slotPool assigns the smallest free log slot to each live thread,
// approximating an OpenMP implementation's bounded thread pool: the number
// of distinct slots equals the maximum thread concurrency, not the total
// number of goroutines ever created.
type slotPool struct {
	mu   sync.Mutex
	free []int // sorted ascending
	next int
	max  int
}

func newSlotPool() *slotPool { return &slotPool{} }

func (p *slotPool) acquire() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.free) > 0 {
		s := p.free[0]
		p.free = p.free[1:]
		return s
	}
	s := p.next
	p.next++
	if p.next > p.max {
		p.max = p.next
	}
	return s
}

func (p *slotPool) release(s int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	// Insert keeping ascending order; pools are small.
	i := 0
	for i < len(p.free) && p.free[i] < s {
		i++
	}
	p.free = append(p.free, 0)
	copy(p.free[i+1:], p.free[i:])
	p.free[i] = s
}

func (p *slotPool) maxUsed() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.max
}

// Here interns the caller's source location as a program counter id in the
// default table. Call once per instrumentation site, outside hot loops.
func Here() uint64 { return pcreg.Default.Here(1) }

// Site interns a symbolic site name as a program counter id.
func Site(name string) uint64 { return pcreg.Site(name) }
