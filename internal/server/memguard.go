package server

import (
	"os"
	"runtime"
	"time"
)

// memGuard is the service's housekeeping loop. Every tick it reaps
// abandoned upload sessions and expired terminal jobs, and — when a
// server-wide heap budget is configured — samples the Go heap and, on
// overrun, cancels the largest running job: the one whose retry under a
// halved analyzer budget buys back the most memory. The shed is graceful
// by construction: the job requeues and retries smaller instead of the
// process OOMing, and the admission byte budget upstream keeps the guard
// a backstop rather than the primary control.
func (s *Server) memGuard() {
	defer close(s.guardDone)
	t := time.NewTicker(200 * time.Millisecond)
	defer t.Stop()
	var ms runtime.MemStats
	for {
		select {
		case <-s.guardStop:
			return
		case <-t.C:
		}
		s.reap(time.Now())
		if s.cfg.MemBudget <= 0 {
			continue
		}
		runtime.ReadMemStats(&ms)
		heap := int64(ms.HeapAlloc)
		s.m.Gauge("server.heap_peak").SetMax(heap)
		if heap <= s.cfg.MemBudget {
			continue
		}
		// Over budget: give the collector one chance to disagree before
		// killing work — HeapAlloc includes garbage not yet swept.
		runtime.GC()
		runtime.ReadMemStats(&ms)
		if heap = int64(ms.HeapAlloc); heap <= s.cfg.MemBudget {
			continue
		}
		s.mu.Lock()
		var victim *Job
		for _, j := range s.jobs {
			if j.State == StateRunning && j.cancel != nil &&
				(victim == nil || j.Bytes > victim.Bytes) {
				victim = j
			}
		}
		if victim != nil {
			victim.cancel(errMemGuard)
		}
		s.mu.Unlock()
	}
}

// reap aborts upload sessions idle past UploadTimeout — a client that
// POSTs a session and walks away cannot hold a tenant job slot and
// charged bytes until restart — and prunes terminal jobs older than
// JobTTL from memory and DataDir, bounding an always-on server's growth
// as jobs complete.
func (s *Server) reap(now time.Time) {
	s.mu.Lock()
	// Expiry and pruning are counted under s.mu, in the same step that
	// makes the session or job unreachable, so the metrics never lag what
	// clients observe.
	var stale []*uploadSession
	for _, u := range s.uploads {
		if now.Sub(u.lastActive) > s.cfg.UploadTimeout {
			s.dropUploadLocked(u)
			s.m.Counter("server.uploads_expired").Inc()
			stale = append(stale, u)
		}
	}
	for id, j := range s.jobs {
		if j.terminal() && !j.FinishedAt.IsZero() && now.Sub(j.FinishedAt) > s.cfg.JobTTL {
			delete(s.jobs, id)
			os.RemoveAll(j.dir) // gone by the time the job stops resolving
			s.m.Counter("server.jobs_pruned").Inc()
		}
	}
	s.mu.Unlock()
	for _, u := range stale {
		u.stopLive()
		os.RemoveAll(u.dir)
	}
}
