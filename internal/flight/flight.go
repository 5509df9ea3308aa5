// Package flight deduplicates concurrent work on one key: while a call
// for a key runs, later callers for the same key wait for it instead of
// repeating it.
//
// Every single-flight in the repository follows one rule: a leader's
// value is shared with its waiters only when the call succeeded. An error
// is never shared. The waiters wake, one of them retries as the new
// leader, and the rest wait on that retry, so one transient failure does
// not fan out to every caller parked behind it.
package flight

import "sync"

// Group runs at most one call per key at a time. The zero value is ready
// to use; a Group must not be copied after first use.
type Group[V any] struct {
	// OnWait, when non-nil, is called with the key each time a caller
	// commits to waiting on another caller's call. Tests use it to know,
	// without sleeping, that a caller is parked behind a leader.
	OnWait func(key string)

	mu    sync.Mutex
	calls map[string]*call[V]
}

type call[V any] struct {
	done chan struct{}
	val  V
	err  error
}

// Do returns the result of fn for key. If no call for key is running,
// the caller leads: it runs fn and returns fn's value and error. Otherwise
// it waits for the running call and returns that call's value if the call
// succeeded; if the call failed, it tries again from the start.
func (g *Group[V]) Do(key string, fn func() (V, error)) (V, error) {
	for {
		g.mu.Lock()
		c, running := g.calls[key]
		if !running {
			if g.calls == nil {
				g.calls = map[string]*call[V]{}
			}
			c = &call[V]{done: make(chan struct{})}
			g.calls[key] = c
		}
		g.mu.Unlock()

		if !running {
			c.val, c.err = fn()
			g.mu.Lock()
			delete(g.calls, key)
			g.mu.Unlock()
			close(c.done)
			return c.val, c.err
		}
		if g.OnWait != nil {
			g.OnWait(key)
		}
		<-c.done
		if c.err == nil {
			return c.val, nil
		}
	}
}
