package server

import (
	"sync"
	"sync/atomic"
)

// broadcast wakes every goroutine waiting for some shared state to change.
// A waiter joins, then loops: take next(), check its condition, and block on
// the channel only if the condition does not hold yet. notify closes the
// channel handed out since the last notify. The change a notifier publishes
// precedes its notify, and a waiter checks after taking the channel, so a
// change is never missed between the check and the block.
//
// notify costs one atomic load while nobody waits, so it can sit on a hot
// path (every drained batch).
type broadcast struct {
	waiters atomic.Int64
	mu      sync.Mutex
	ch      chan struct{}
}

func (b *broadcast) join()  { b.waiters.Add(1) }
func (b *broadcast) leave() { b.waiters.Add(-1) }

// next returns the channel the next notify closes.
func (b *broadcast) next() <-chan struct{} {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.ch == nil {
		b.ch = make(chan struct{})
	}
	return b.ch
}

// notify wakes every waiter that took next() before this call.
func (b *broadcast) notify() {
	if b.waiters.Load() == 0 {
		return
	}
	b.mu.Lock()
	if b.ch != nil {
		close(b.ch)
		b.ch = nil
	}
	b.mu.Unlock()
}
