package flight

import (
	"errors"
	"sync/atomic"
	"testing"
)

// TestDoSharesSuccess: callers that arrive while a call runs park behind
// it and receive its value; the function runs once.
func TestDoSharesSuccess(t *testing.T) {
	var g Group[int]
	const waiters = 8
	parked := make(chan string, waiters)
	g.OnWait = func(key string) { parked <- key }

	started := make(chan struct{})
	release := make(chan struct{})
	var calls atomic.Int32
	fn := func() (int, error) {
		calls.Add(1)
		close(started)
		<-release
		return 42, nil
	}

	leader := make(chan int, 1)
	go func() {
		v, _ := g.Do("k", fn)
		leader <- v
	}()
	<-started

	results := make(chan int, waiters)
	for i := 0; i < waiters; i++ {
		go func() {
			v, err := g.Do("k", func() (int, error) {
				t.Error("waiter ran the function")
				return 0, nil
			})
			if err != nil {
				t.Error(err)
			}
			results <- v
		}()
	}
	for i := 0; i < waiters; i++ {
		if key := <-parked; key != "k" {
			t.Fatalf("OnWait key = %q", key)
		}
	}
	close(release)
	for i := 0; i < waiters; i++ {
		if v := <-results; v != 42 {
			t.Fatalf("waiter got %d, want 42", v)
		}
	}
	if v := <-leader; v != 42 {
		t.Fatalf("leader got %d", v)
	}
	if n := calls.Load(); n != 1 {
		t.Fatalf("function ran %d times, want 1", n)
	}
}

// TestDoErrorNotShared: the leader gets its own error; a parked waiter
// does not, and retries as the new leader.
func TestDoErrorNotShared(t *testing.T) {
	var g Group[int]
	parked := make(chan struct{}, 1)
	g.OnWait = func(string) { parked <- struct{}{} }

	started := make(chan struct{})
	release := make(chan struct{})
	errTransient := errors.New("transient")
	var calls atomic.Int32
	fn := func() (int, error) {
		if calls.Add(1) == 1 {
			close(started)
			<-release
			return 0, errTransient
		}
		return 7, nil
	}

	leader := make(chan error, 1)
	go func() {
		_, err := g.Do("k", fn)
		leader <- err
	}()
	<-started
	waiter := make(chan int, 1)
	go func() {
		v, err := g.Do("k", fn)
		if err != nil {
			t.Error(err)
		}
		waiter <- v
	}()
	<-parked
	close(release)

	if err := <-leader; !errors.Is(err, errTransient) {
		t.Fatalf("leader err = %v, want the transient error", err)
	}
	if v := <-waiter; v != 7 {
		t.Fatalf("waiter got %d, want its own retry's 7", v)
	}
	if n := calls.Load(); n != 2 {
		t.Fatalf("function ran %d times, want 2", n)
	}
}
