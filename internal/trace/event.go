// Package trace defines SWORD's on-disk trace model: memory-access and
// OpenMP synchronization events, their compact binary encoding, the
// per-barrier-interval meta-data records of Table I, and the log/meta store
// abstractions used by the dynamic collector and the offline analyzer.
//
// Each analyzed thread owns one log file and one meta-data file. The log
// file is a sequence of compressed blocks, each holding a batch of encoded
// events; byte offsets recorded in meta-data records refer to *logical*
// (uncompressed) positions so the offline analyzer can stream the log,
// decompressing block by block, and slice out the byte range of any barrier
// interval fragment.
package trace

import "fmt"

// Kind discriminates the events stored in a log file. Region and barrier
// boundaries are not stored as log events: they delimit interval fragments
// and live in the meta-data file instead, exactly as in the paper where the
// meta-data drives chunked extraction of access data.
type Kind uint8

const (
	// KindAccess is a memory load or store executed in a parallel region.
	KindAccess Kind = iota
	// KindMutexAcquire marks entry into a critical section or lock.
	KindMutexAcquire
	// KindMutexRelease marks exit from a critical section or lock.
	KindMutexRelease
)

// String returns the kind name.
func (k Kind) String() string {
	switch k {
	case KindAccess:
		return "access"
	case KindMutexAcquire:
		return "mutex-acquire"
	case KindMutexRelease:
		return "mutex-release"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// MutexSet is the set of mutexes held at an access, as a bitset indexed by
// mutex id. The runtime bounds the number of distinct mutexes per run to
// MaxMutexes so the set fits in one word; real OpenMP codes use a handful
// of named critical sections and locks.
type MutexSet uint64

// MaxMutexes is the largest number of distinct mutex ids representable in a
// MutexSet.
const MaxMutexes = 64

// With returns the set extended with mutex id.
func (s MutexSet) With(id uint64) MutexSet { return s | 1<<(id&63) }

// Without returns the set with mutex id removed.
func (s MutexSet) Without(id uint64) MutexSet { return s &^ (1 << (id & 63)) }

// Has reports whether mutex id is in the set.
func (s MutexSet) Has(id uint64) bool { return s&(1<<(id&63)) != 0 }

// Intersects reports whether the two sets share a mutex. Two conflicting
// accesses protected by a common mutex cannot race.
func (s MutexSet) Intersects(o MutexSet) bool { return s&o != 0 }

// Empty reports whether no mutex is held.
func (s MutexSet) Empty() bool { return s == 0 }

// Event is one decoded log record: a mutex event, a single access, or a
// run of Count accesses at Addr, Addr+Stride, ... that share every other
// attribute.
type Event struct {
	Kind Kind

	// Access payload (KindAccess).
	Addr   uint64 // first byte of the accessed location (a run's first access)
	Size   uint8  // access width in bytes (power of two, 1..128)
	Write  bool   // store rather than load
	Atomic bool   // atomic operation (atomics do not race with atomics)
	PC     uint64 // interned program-counter id of the access site
	Stride int64  // address step between a run's accesses; 0 for a single access
	Count  uint64 // events the record stands for: a run's length, otherwise 1

	// Mutex payload (KindMutexAcquire / KindMutexRelease).
	Mutex uint64 // mutex id
}

// NoParent marks a root parallel region's missing parent id in meta-data
// records (the "–" of Table I).
const NoParent = ^uint64(0)

// Meta is one line of a thread's meta-data file: a *fragment* of a barrier
// interval, i.e. a contiguous byte range of the thread's log belonging to
// one (region, barrier-id) interval. Nested regions split the enclosing
// interval's data, producing several fragments with the same PID/BID.
//
// Fields mirror Table I of the paper: pid, ppid, bid, offset, span, level,
// data begin, size. ParentTID, ParentBID and Seq extend the record with the
// fork point of the region inside its parent ("other information" in the
// paper), which the offline analyzer needs to order sibling regions.
type Meta struct {
	PID       uint64 // parallel region instance id
	PPID      uint64 // parent region instance id, NoParent at the root
	BID       uint64 // barrier interval id within the region
	Offset    uint64 // offset-span label last pair: tid + BID*Span
	Span      uint64 // team size of the region
	Level     uint32 // nesting level of parallelism (1 = outermost)
	DataBegin uint64 // logical byte offset of the fragment in the log file
	DataSize  uint64 // fragment length in bytes

	ParentTID uint64 // thread id in the parent region that forked this one
	ParentBID uint64 // barrier interval of the parent in which the fork ran
	Seq       uint64 // index of this region among regions forked by the same parent interval

	// Held is the mutex set the thread holds as the fragment opens, making
	// each fragment self-contained for streamed analysis: the analyzer
	// seeds the running held set from it and applies the fragment's own
	// mutex events.
	Held MutexSet

	// Cut is the fragment's index among the interval's fragment
	// boundaries: fragments split at nested forks, task spawns and
	// taskwaits, and Cut orders a fragment relative to those events. The
	// analyzer compares Cut against child regions' fork/wait cuts to order
	// task activity within the interval.
	Cut uint64
	// ParentCut is the boundary index in the parent interval at which
	// this region was forked or spawned.
	ParentCut uint64
	// Async marks fragments of an OpenMP task region (the tasking
	// extension): the parent did not suspend at the fork.
	Async bool
}

// TID returns the thread id within the region team (offset mod span).
func (m *Meta) TID() uint64 {
	if m.Span == 0 {
		return 0
	}
	return m.Offset % m.Span
}

// IntervalKey identifies a barrier interval of one thread in one region
// instance; all fragments sharing a key belong to the same interval.
type IntervalKey struct {
	PID uint64
	TID uint64
	BID uint64
}

// Key returns the interval key of the fragment.
func (m *Meta) Key() IntervalKey {
	return IntervalKey{PID: m.PID, TID: m.TID(), BID: m.BID}
}
