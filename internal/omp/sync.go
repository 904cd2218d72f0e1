package omp

import (
	"sync"

	"sword/internal/trace"
)

// Lock is an OpenMP lock (omp_lock_t). Tools observe acquisitions and
// releases through MutexAcquired/MutexReleased callbacks; the lock's id
// feeds held-mutex sets in trace logs.
type Lock struct {
	id uint64
	mu sync.Mutex
}

// NewLock creates a lock with a fresh mutex id. The reproduction bounds
// distinct mutexes per run at trace.MaxMutexes so held sets fit one word;
// ids beyond the bound alias (conservatively hiding some races), which no
// bundled workload approaches.
func (r *Runtime) NewLock() *Lock {
	return &Lock{id: r.mutexSeq.Add(1) - 1}
}

// ID returns the lock's mutex id.
func (l *Lock) ID() uint64 { return l.id }

// Acquire locks l, recording the acquisition for tools and the held set.
func (t *Thread) Acquire(l *Lock) {
	l.mu.Lock()
	t.held = t.held.With(l.id)
	// Dropped accesses rematerialize with an empty mutex set; once a lock
	// is held, dropping must end or the replay would invent races.
	t.certStop()
	t.rt.tools.mutexAcquired(t, l.id)
}

// Release unlocks l.
func (t *Thread) Release(l *Lock) {
	if !t.held.Has(l.id) {
		panic("omp: release of a lock not held")
	}
	t.rt.tools.mutexReleased(t, l.id)
	t.held = t.held.Without(l.id)
	l.mu.Unlock()
}

// WithLock runs f while holding l.
func (t *Thread) WithLock(l *Lock, f func()) {
	t.Acquire(l)
	defer t.Release(l)
	f()
}

// Critical executes f inside the named critical section, creating the
// section's lock on first use. The empty name is the anonymous critical
// section, shared program-wide like OpenMP's unnamed critical.
func (t *Thread) Critical(name string, f func()) {
	l := t.rt.criticalLock(name)
	t.WithLock(l, f)
}

// criticalLock returns the named section's lock. First use is serialized
// so that threads racing to create it draw one mutex id, not one each:
// otherwise the section's id, and with it the trace, would depend on the
// schedule.
func (r *Runtime) criticalLock(name string) *Lock {
	if v, ok := r.criticals.Load(name); ok {
		return v.(*Lock)
	}
	r.criticalMu.Lock()
	defer r.criticalMu.Unlock()
	if v, ok := r.criticals.Load(name); ok {
		return v.(*Lock)
	}
	l := r.NewLock()
	r.criticals.Store(name, l)
	return l
}

// atomicStripes serialize simulated atomic read-modify-write operations.
// Striping by address keeps contention realistic without a lock per
// location.
var atomicStripes [64]sync.Mutex

func atomicStripe(addr uint64) *sync.Mutex {
	return &atomicStripes[(addr>>3)%64]
}

// Sequencer forces a specific interleaving across threads for litmus
// tests, such as the two schedules of Figure 1. It is test scaffolding
// only: it produces no tool-visible synchronization, exactly like
// scheduler timing in a real execution, so happens-before tools see the
// interleaving but no extra edges.
type Sequencer struct {
	mu   sync.Mutex
	cond *sync.Cond
	step int
}

// NewSequencer returns a sequencer at step 0.
func NewSequencer() *Sequencer {
	s := &Sequencer{}
	s.cond = sync.NewCond(&s.mu)
	return s
}

// Await blocks until the sequencer reaches step.
func (s *Sequencer) Await(step int) {
	s.mu.Lock()
	for s.step < step {
		s.cond.Wait()
	}
	s.mu.Unlock()
}

// Advance moves to the next step, waking waiters.
func (s *Sequencer) Advance() {
	s.mu.Lock()
	s.step++
	s.mu.Unlock()
	s.cond.Broadcast()
}

// Do waits for step, runs f, and advances — one numbered slice of a forced
// interleaving.
func (s *Sequencer) Do(step int, f func()) {
	s.Await(step)
	f()
	s.Advance()
}

// MutexCount reports how many distinct mutexes (locks and critical
// sections) the runtime has created.
func (r *Runtime) MutexCount() uint64 { return r.mutexSeq.Load() }

var _ = trace.MaxMutexes // documented bound; see NewLock
