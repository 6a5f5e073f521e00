package service

import (
	"sync"
	"time"
)

// queue is the prioritized FIFO job queue feeding the worker pool:
// higher priority pops first, and jobs of equal priority pop in
// submission order (the seq counter breaks ties). It deliberately holds
// job IDs, not jobs — the store is the single source of truth, and a
// daemon restart rebuilds the queue from the store's recovery scan.
//
// One supervision feature lives here, the delayed requeue: pushDelayed
// holds an item invisible until its notBefore instant — the job-level
// retry backoff.
type queue struct {
	mu     sync.Mutex
	cond   *sync.Cond
	items  []queueItem
	seq    uint64
	closed bool

	// testOnWait, when set, is called (under mu) immediately before a
	// popper blocks on the condition variable — the deterministic "a
	// popper is now waiting" signal the queue tests synchronize on.
	testOnWait func()
}

type queueItem struct {
	id        string
	priority  int
	seq       uint64
	notBefore time.Time
}

func newQueue() *queue {
	q := &queue{}
	q.cond = sync.NewCond(&q.mu)
	return q
}

// push enqueues a job ID at the given priority. Pushing onto a closed
// queue is a silent no-op (the daemon is draining; the job stays queued
// in the store and the next daemon's recovery scan picks it up).
func (q *queue) push(id string, priority int) {
	q.pushDelayed(id, priority, 0)
}

// pushDelayed enqueues a job that becomes poppable only after delay —
// the retry-backoff entry point.
func (q *queue) pushDelayed(id string, priority int, delay time.Duration) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return
	}
	it := queueItem{id: id, priority: priority, seq: q.seq}
	if delay > 0 {
		it.notBefore = time.Now().Add(delay)
	}
	q.seq++
	q.items = append(q.items, it)
	q.cond.Broadcast()
}

// pop blocks until an item is ready or the queue is closed, in which
// case it returns ok=false. Among ready items it picks the highest
// priority, FIFO within a level. Items still inside
// their backoff delay are invisible; a timer wakes the poppers when the
// earliest one matures.
func (q *queue) pop() (string, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for {
		now := time.Now()
		best := -1
		soonest := time.Time{}
		for i, it := range q.items {
			if it.notBefore.After(now) {
				if soonest.IsZero() || it.notBefore.Before(soonest) {
					soonest = it.notBefore
				}
				continue
			}
			if best < 0 || it.priority > q.items[best].priority ||
				(it.priority == q.items[best].priority && it.seq < q.items[best].seq) {
				best = i
			}
		}
		if best >= 0 {
			it := q.items[best]
			q.items = append(q.items[:best], q.items[best+1:]...)
			return it.id, true
		}
		if q.closed {
			return "", false
		}
		var waker *time.Timer
		if !soonest.IsZero() {
			// Only delayed items exist: arrange a wake-up at the earliest
			// maturity (plus a hair, so the re-check sees it ready).
			waker = time.AfterFunc(time.Until(soonest)+time.Millisecond, func() {
				q.mu.Lock()
				q.cond.Broadcast()
				q.mu.Unlock()
			})
		}
		if q.testOnWait != nil {
			q.testOnWait()
		}
		q.cond.Wait()
		if waker != nil {
			waker.Stop()
		}
	}
}

// remove deletes a queued ID (cancellation). Returns whether it was
// present.
func (q *queue) remove(id string) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	for i, e := range q.items {
		if e.id == id {
			q.items = append(q.items[:i], q.items[i+1:]...)
			return true
		}
	}
	return false
}

// depth reports the queued item count (backoff-delayed items included:
// they hold queue capacity — admission control counts them).
func (q *queue) depth() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.items)
}

// close wakes every blocked pop with ok=false. Idempotent.
func (q *queue) close() {
	q.mu.Lock()
	q.closed = true
	q.mu.Unlock()
	q.cond.Broadcast()
}
