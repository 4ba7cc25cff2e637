// Package lock_ok shows the allowed locking shapes: deferred unlock,
// branch unlock-then-return, the guarded try-send under a read lock,
// and tight lock/unlock loops.
package lock_ok

import "sync"

type box struct {
	mu sync.Mutex
	rw sync.RWMutex
	ch chan int
	n  int
}

func (b *box) deferred() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.n
}

func (b *box) branchy(cond bool) int {
	b.mu.Lock()
	if cond {
		b.mu.Unlock()
		return 1
	}
	b.mu.Unlock()
	return 0
}

func (b *box) trySend(v int) bool {
	b.rw.RLock()
	select {
	case b.ch <- v:
		b.rw.RUnlock()
		return true
	default:
		b.rw.RUnlock()
		return false
	}
}

func (b *box) sendUnlocked(v int) {
	b.mu.Lock()
	b.n++
	b.mu.Unlock()
	b.ch <- v
}

func (b *box) loops() {
	for i := 0; i < 3; i++ {
		b.mu.Lock()
		b.n++
		b.mu.Unlock()
	}
}
