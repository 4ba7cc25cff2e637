// Package noalloc_sync_ok shows the rostered sync primitives inside a
// //scg:noalloc function: an RWMutex read lock guarding a flag, and a
// WaitGroup counting work in flight — the batcher's admission shape.
// The lint self-test asserts zero findings.
package noalloc_sync_ok

import "sync"

type gate struct {
	mu       sync.RWMutex
	closed   bool
	inflight sync.WaitGroup
}

//scg:noalloc
func (g *gate) run(work []int) bool {
	g.mu.RLock()
	if g.closed {
		g.mu.RUnlock()
		return false
	}
	g.inflight.Add(1)
	g.mu.RUnlock()
	for i := range work {
		work[i]++
	}
	g.inflight.Done()
	return true
}
