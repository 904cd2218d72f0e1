package core

import (
	"sort"
	"sync"

	"sword/internal/ilp"
	"sword/internal/itree"
	"sword/internal/pcreg"
	"sword/internal/report"
)

// This file is the pair-comparison engine: how two concurrent tree units
// are compared once enumeratePairs has listed them. Three mechanisms stack
// on top of the basic bbox-overlap + race-filter + solver pipeline:
//
//   - Sweep: each unit's tree is flattened once into a Low-sorted run
//     (cached on the unit, reused by every pair it joins, freed with the
//     batch), and two runs are merged with an active-set window. Every
//     bbox-overlapping node pair is emitted exactly once, in O(n + m + k)
//     pointer steps instead of O(n·(log m + k)) tree probes per pair.
//   - Solver memo: ilp.Intersect depends only on the two strides, counts,
//     widths, and the signed base difference — a common translation of
//     both progressions changes nothing. Strided loops repeat the same
//     offset-normalized shape across thousands of node pairs, so the
//     verdict (and a translatable witness) is cached per worker with a
//     sharded global spill behind it.
//   - Race-site suppression: report dedup merges every further detection
//     of a confirmed (PC, PC, write, write) site pair into one record that
//     keeps the lowest witness address, so once the pair is known racy,
//     later node pairs mapping to it skip the solver unless they could
//     still lower that witness (Config.AllRaces disables this to count
//     every instance). The reported witness is therefore the lowest over
//     all conflicting node pairs, whatever order they are compared in.
//
// The legacy probing engine (Config.ProbeEngine) is kept verbatim as the
// reference implementation for differential tests and A/B benchmarks.

// compareEngine is the state shared by all comparison workers of one
// Analyze run. It spans SubtreeBatch batches on purpose: memoized shapes
// and confirmed race sites keep paying off across batches.
type compareEngine struct {
	pcs      *pcreg.Table
	rep      *report.Report
	noSolver bool
	allRaces bool
	probe    bool

	memo  solverMemo
	sites sync.Map // raceSite -> uint64: confirmed racy, lowest witness so far

	comparisons, solverCalls, bboxFast atomicCounter
	cacheHits, cacheMisses, suppressed atomicCounter
}

func newCompareEngine(cfg Config, pcs *pcreg.Table, rep *report.Report) *compareEngine {
	return &compareEngine{
		pcs:      pcs,
		rep:      rep,
		noSolver: cfg.NoSolver,
		allRaces: cfg.AllRaces,
		probe:    cfg.ProbeEngine,
	}
}

// engineWorker is one comparison worker's private view of the engine: a
// local memo layer in front of the sharded global one, reusable active-set
// scratch, and local effort counters flushed once when the worker drains.
type engineWorker struct {
	e          *compareEngine
	local      map[solverKey]solverResult
	actA, actB []*itree.Run

	comps, solves, bbox uint64
	hits, misses, suppd uint64
}

func (e *compareEngine) newWorker() *engineWorker {
	return &engineWorker{e: e, local: make(map[solverKey]solverResult)}
}

// setReport swaps the report the comparison workers feed. The distributed
// BatchAnalyzer gives every batch a fresh report while the engine's solver
// memo and confirmed race sites stay warm across batches. Callers must not
// swap while a comparePairs pool is running.
func (e *compareEngine) setReport(rep *report.Report) { e.rep = rep }

// setPCs swaps the symbolization table. The live analyzer starts with an
// empty table (the collector persists the real one only at Close) and
// installs the persisted table at finalize, resymbolizing the races
// reported so far. Callers must not swap while a comparePairs pool runs.
func (e *compareEngine) setPCs(pcs *pcreg.Table) { e.pcs = pcs }

// engineCounters is a point-in-time copy of the engine's effort counters;
// distributed batches subtract two snapshots to report per-batch deltas.
type engineCounters struct {
	comparisons, solverCalls, bboxFast uint64
	cacheHits, cacheMisses, suppressed uint64
}

func (e *compareEngine) snapshot() engineCounters {
	return engineCounters{
		comparisons: e.comparisons.load(),
		solverCalls: e.solverCalls.load(),
		bboxFast:    e.bboxFast.load(),
		cacheHits:   e.cacheHits.load(),
		cacheMisses: e.cacheMisses.load(),
		suppressed:  e.suppressed.load(),
	}
}

// flush folds the worker's counters into the engine; called once per
// worker after the pair channel drains.
func (w *engineWorker) flush() {
	w.e.comparisons.add(w.comps)
	w.e.solverCalls.add(w.solves)
	w.e.bboxFast.add(w.bbox)
	w.e.cacheHits.add(w.hits)
	w.e.cacheMisses.add(w.misses)
	w.e.suppressed.add(w.suppd)
}

// comparePair reports races between two concurrent tree units.
func (w *engineWorker) comparePair(a, b *treeUnit) {
	if w.e.probe {
		w.probePair(a, b)
		return
	}
	ra, rb := a.run(), b.run()
	// Merge sweep: advance both Low-sorted runs together. An arriving node
	// meets exactly the opposite side's still-open intervals (Low already
	// passed, last byte not yet behind the sweep line), so each
	// bbox-overlapping pair is emitted exactly once — ties on Low are
	// broken by always taking the a side first.
	actA, actB := w.actA[:0], w.actB[:0]
	i, j := 0, 0
	for i < len(ra) || j < len(rb) {
		if j >= len(rb) || (i < len(ra) && ra[i].Low <= rb[j].Low) {
			if j >= len(rb) && len(actB) == 0 {
				break // nothing left for the a side to meet
			}
			n := &ra[i]
			i++
			actB = expire(actB, n.Low)
			for _, m := range actB {
				w.check(n, m)
			}
			actA = append(actA, n)
		} else {
			if i >= len(ra) && len(actA) == 0 {
				break
			}
			m := &rb[j]
			j++
			actA = expire(actA, m.Low)
			for _, n := range actA {
				w.check(n, m)
			}
			actB = append(actB, m)
		}
	}
	w.actA, w.actB = actA[:0], actB[:0]
}

// expire drops active intervals whose last byte lies before low,
// compacting in place so the scratch slice is reused across sweep steps.
func expire(act []*itree.Run, low uint64) []*itree.Run {
	kept := act[:0]
	for _, n := range act {
		if n.LastByte() >= low {
			kept = append(kept, n)
		}
	}
	return kept
}

// check applies the race conditions of Section III-B to one overlapping
// node pair: at least one write, not both atomic, disjoint mutex sets, and
// a genuinely shared byte — the last decided through suppression and the
// solver memo.
func (w *engineWorker) check(na, nb *itree.Run) {
	w.comps++
	if !na.Write && !nb.Write {
		return
	}
	if na.Atomic && nb.Atomic {
		return
	}
	if na.Mutexes.Intersects(nb.Mutexes) {
		return
	}
	if w.e.noSolver {
		w.bbox++
		w.reportRace(na, nb, max(na.Low, nb.Low))
		return
	}
	site := newRaceSite(na, nb)
	if !w.e.allRaces {
		// A witness is a byte both runs touch, so it is at least the
		// higher of the two first bytes: a pair starting at or above the
		// site's lowest witness so far cannot lower it and is skipped.
		if wit, done := w.e.sites.Load(site); done && max(na.Low, nb.Low) >= wit.(uint64) {
			w.suppd++
			return
		}
	}
	addr, ok := w.intersect(na.Progression(), nb.Progression())
	if !ok {
		return
	}
	if !w.e.allRaces {
		w.e.lowerWitness(site, addr)
	}
	w.reportRace(na, nb, addr)
}

// lowerWitness records addr as the site's witness unless a lower one is
// already known.
func (e *compareEngine) lowerWitness(site raceSite, addr uint64) {
	for {
		old, loaded := e.sites.LoadOrStore(site, addr)
		if !loaded || old.(uint64) <= addr || e.sites.CompareAndSwap(site, old, addr) {
			return
		}
	}
}

func (w *engineWorker) reportRace(na, nb *itree.Run, addr uint64) {
	w.e.rep.Add(report.Race{
		First:  side(na, w.e.pcs),
		Second: side(nb, w.e.pcs),
		Addr:   addr,
	})
}

// probePair is the legacy comparison path: probe each node of the smaller
// tree against the other tree's overlap index, one direct solver call per
// eligible pair, no memo and no suppression.
func (w *engineWorker) probePair(a, b *treeUnit) {
	ta, tb := &a.tree, &b.tree
	if ta.Len() > tb.Len() {
		ta, tb = tb, ta
	}
	ta.Visit(func(na *itree.Node) bool {
		tb.VisitOverlaps(na.Low, na.LastByte(), func(nb *itree.Node) bool {
			w.comps++
			if addr, ok := w.rawRace(&na.Run, &nb.Run); ok {
				w.reportRace(&na.Run, &nb.Run, addr)
			}
			return true
		})
		return true
	})
}

// rawRace applies the race filters and decides shared-byte overlap with a
// direct solver call, threading the witness address out of that single
// solve.
func (w *engineWorker) rawRace(na, nb *itree.Run) (uint64, bool) {
	if !na.Write && !nb.Write {
		return 0, false
	}
	if na.Atomic && nb.Atomic {
		return 0, false
	}
	if na.Mutexes.Intersects(nb.Mutexes) {
		return 0, false
	}
	if w.e.noSolver {
		w.bbox++
		return max(na.Low, nb.Low), true // bounding boxes already overlap
	}
	w.solves++
	return ilp.Intersect(na.Progression(), nb.Progression())
}

// raceSite identifies a race record exactly as report dedup does: the
// unordered (PC, PC) pair plus each side's write bit. Node pairs mapping
// to an already-confirmed site could only merge into the existing record,
// so suppression on this key never changes the set of reported races.
type raceSite struct {
	pcA, pcB uint64
	wA, wB   bool
}

func newRaceSite(na, nb *itree.Run) raceSite {
	a, b := na, nb
	if a.PC > b.PC || (a.PC == b.PC && a.Write && !b.Write) {
		a, b = b, a
	}
	return raceSite{pcA: a.PC, pcB: b.PC, wA: a.Write, wB: b.Write}
}

// solverKey is the offset-normalized shape of a progression pair:
// everything Intersect's verdict depends on, with the absolute position
// reduced to the signed base difference. The pair is stored in canonical
// orientation (intersection is symmetric) so both call orders share one
// entry.
type solverKey struct {
	strideA, countA, widthA uint64
	strideB, countB, widthB uint64
	baseDelta               int64 // second base minus first base
}

// solverResult caches a verdict with the witness stored relative to the
// first progression's base, so one entry serves every translated
// occurrence of the shape.
type solverResult struct {
	off uint64
	ok  bool
}

// shapeLess orders progressions by their translation-invariant fields.
func shapeLess(a, b ilp.Progression) bool {
	if a.Stride != b.Stride {
		return a.Stride < b.Stride
	}
	if a.Count != b.Count {
		return a.Count < b.Count
	}
	return a.Width < b.Width
}

// intersect is the memoized ilp.Intersect: local layer first, then the
// sharded global spill, then one real solve whose result feeds both.
func (w *engineWorker) intersect(pa, pb ilp.Progression) (uint64, bool) {
	pa, pb = pa.Normalized(), pb.Normalized()
	first, second := pa, pb
	if shapeLess(pb, pa) || (!shapeLess(pa, pb) && pb.Base < pa.Base) {
		first, second = pb, pa
	}
	k := solverKey{
		strideA: first.Stride, countA: first.Count, widthA: first.Width,
		strideB: second.Stride, countB: second.Count, widthB: second.Width,
		baseDelta: int64(second.Base) - int64(first.Base),
	}
	if r, ok := w.local[k]; ok {
		w.hits++
		return first.Base + r.off, r.ok
	}
	if r, ok := w.e.memo.lookup(k); ok {
		w.local[k] = r
		w.hits++
		return first.Base + r.off, r.ok
	}
	w.misses++
	w.solves++
	wit, ok := ilp.Intersect(first, second)
	r := solverResult{ok: ok}
	if ok {
		r.off = wit - first.Base
	}
	w.local[k] = r
	w.e.memo.store(k, r)
	return wit, ok
}

const memoShards = 32

// solverMemo is the sharded global spill behind each worker's private memo
// layer: a shape solved by one worker becomes a hit for every other, and
// for every later SubtreeBatch batch.
type solverMemo struct {
	shards [memoShards]memoShard
}

type memoShard struct {
	mu sync.Mutex
	m  map[solverKey]solverResult
}

func (s *solverMemo) shard(k solverKey) *memoShard {
	// FNV-1a over the key's fields; the shard count only needs the hash to
	// spread contention, not to be cryptographic.
	h := uint64(14695981039346656037)
	for _, v := range [...]uint64{k.strideA, k.countA, k.widthA, k.strideB, k.countB, k.widthB, uint64(k.baseDelta)} {
		h ^= v
		h *= 1099511628211
	}
	return &s.shards[h%memoShards]
}

func (s *solverMemo) lookup(k solverKey) (solverResult, bool) {
	sh := s.shard(k)
	sh.mu.Lock()
	r, ok := sh.m[k]
	sh.mu.Unlock()
	return r, ok
}

func (s *solverMemo) store(k solverKey, r solverResult) {
	sh := s.shard(k)
	sh.mu.Lock()
	if sh.m == nil {
		sh.m = make(map[solverKey]solverResult)
	}
	sh.m[k] = r
	sh.mu.Unlock()
}

// schedulePairs orders pairs by descending estimated cost — the product of
// the two run lengths, the sweep's work bound — so the worker pool digests
// heavy pairs first and stays balanced on skewed workloads. The stable
// sort keeps the canonical enumeration order on ties, preserving
// deterministic scheduling.
func schedulePairs(pairs [][2]*treeUnit) {
	sort.SliceStable(pairs, func(i, j int) bool {
		return pairCost(pairs[i]) > pairCost(pairs[j])
	})
}

func pairCost(p [2]*treeUnit) uint64 {
	return uint64(p[0].nodeCount()) * uint64(p[1].nodeCount())
}
