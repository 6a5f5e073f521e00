package service

import (
	"testing"
	"time"
)

func TestQueuePriorityFIFO(t *testing.T) {
	q := newQueue()
	q.push("low-1", 0)
	q.push("high-1", 5)
	q.push("low-2", 0)
	q.push("high-2", 5)
	q.push("mid-1", 3)

	want := []string{"high-1", "high-2", "mid-1", "low-1", "low-2"}
	for _, w := range want {
		id, ok := q.pop()
		if !ok {
			t.Fatalf("queue closed early, wanted %s", w)
		}
		if id != w {
			t.Fatalf("popped %s, want %s", id, w)
		}
	}
	if d := q.depth(); d != 0 {
		t.Fatalf("depth %d after draining, want 0", d)
	}
}

// blockedPoppers arms the queue's testOnWait hook and returns a channel
// that receives one signal each time a popper is about to block on the
// condition variable — the deterministic "pop is now waiting" event
// these tests synchronize on instead of sleeping.
func blockedPoppers(q *queue, capacity int) <-chan struct{} {
	ch := make(chan struct{}, capacity)
	q.testOnWait = func() {
		select {
		case ch <- struct{}{}:
		default:
		}
	}
	return ch
}

func TestQueueBlockingPop(t *testing.T) {
	q := newQueue()
	waiting := blockedPoppers(q, 1)
	got := make(chan string, 1)
	go func() {
		id, ok := q.pop()
		if !ok {
			close(got)
			return
		}
		got <- id
	}()
	// The popper signals right before it blocks: nothing pushed yet, so
	// this must happen (no timing assumption — just the signal).
	select {
	case <-waiting:
	case <-time.After(2 * time.Second):
		t.Fatal("popper never blocked on the empty queue")
	}
	select {
	case id := <-got:
		t.Fatalf("pop returned %q before any push", id)
	default:
	}
	q.push("a", 0)
	select {
	case id := <-got:
		if id != "a" {
			t.Fatalf("popped %q, want a", id)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("pop did not wake after push")
	}
}

func TestQueueClose(t *testing.T) {
	q := newQueue()
	waiting := blockedPoppers(q, 2)
	done := make(chan bool, 2)
	for i := 0; i < 2; i++ {
		go func() {
			_, ok := q.pop()
			done <- ok
		}()
	}
	// Both poppers report they are blocked before we close — the exact
	// race the old sleep-based version was papering over.
	for i := 0; i < 2; i++ {
		select {
		case <-waiting:
		case <-time.After(2 * time.Second):
			t.Fatal("poppers never blocked on the empty queue")
		}
	}
	q.close()
	for i := 0; i < 2; i++ {
		select {
		case ok := <-done:
			if ok {
				t.Fatal("pop on closed empty queue returned ok=true")
			}
		case <-time.After(2 * time.Second):
			t.Fatal("pop did not wake on close")
		}
	}
	// Pushing after close is a silent no-op; pop keeps returning ok=false.
	q.push("late", 9)
	if d := q.depth(); d != 0 {
		t.Fatalf("closed queue accepted a push (depth %d)", d)
	}
	if _, ok := q.pop(); ok {
		t.Fatal("pop on closed queue returned ok=true")
	}
}

func TestQueueRemove(t *testing.T) {
	q := newQueue()
	q.push("a", 0)
	q.push("b", 0)
	q.push("c", 0)
	if !q.remove("b") {
		t.Fatal("remove(b) = false, want true")
	}
	if q.remove("b") {
		t.Fatal("second remove(b) = true, want false")
	}
	for _, w := range []string{"a", "c"} {
		if id, _ := q.pop(); id != w {
			t.Fatalf("popped %s, want %s", id, w)
		}
	}
}

// TestQueueDelayedPush: an item inside its backoff delay is invisible to
// pop (even at the highest priority) until its notBefore matures.
func TestQueueDelayedPush(t *testing.T) {
	q := newQueue()
	const delay = 300 * time.Millisecond
	start := time.Now()
	q.pushDelayed("backing-off", 10, delay)
	q.push("ready", 0)
	if d := q.depth(); d != 2 {
		t.Fatalf("depth %d, want 2 (delayed items hold queue capacity)", d)
	}
	if id, _ := q.pop(); id != "ready" {
		t.Fatalf("popped %s, want ready (delayed item must be invisible)", id)
	}
	if id, _ := q.pop(); id != "backing-off" {
		t.Fatal("matured delayed item did not pop")
	}
	if waited := time.Since(start); waited < delay {
		t.Fatalf("delayed item popped after %v, inside its %v backoff", waited, delay)
	}
}

// TestQueueDelayedWake: a popper blocked on a queue holding only delayed
// items is woken by the maturity timer, not by a push.
func TestQueueDelayedWake(t *testing.T) {
	q := newQueue()
	q.pushDelayed("soon", 0, 5*time.Millisecond)
	got := make(chan string, 1)
	go func() {
		id, _ := q.pop()
		got <- id
	}()
	select {
	case id := <-got:
		if id != "soon" {
			t.Fatalf("popped %q, want soon", id)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("pop never woke for the matured delayed item")
	}
}
