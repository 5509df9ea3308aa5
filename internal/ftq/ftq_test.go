package ftq

import (
	"testing"

	"smtfetch/internal/isa"
)

func mustPanic(t *testing.T, name string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s did not panic", name)
		}
	}()
	fn()
}

// TestPoolLifecycle walks one request through the full reference-count
// protocol: Get -> Retain -> Release -> Release -> back on the free list ->
// reused by the next Get with a bumped epoch and reset state.
func TestPoolLifecycle(t *testing.T) {
	p := NewPool()
	r := p.Get(3)
	if !r.Live() || r.Refs() != 1 || r.Thread != 3 {
		t.Fatalf("fresh request: live=%v refs=%d thread=%d", r.Live(), r.Refs(), r.Thread)
	}
	if p.Allocated() != 1 || p.FreeLen() != 0 {
		t.Fatalf("pool after Get: allocated=%d free=%d", p.Allocated(), p.FreeLen())
	}
	e1 := r.Epoch()

	in := isa.Instruction{PC: 0x100, Class: isa.Branch, BrKind: isa.CondBranch}
	*r.AppendSlot() = in
	bi := r.AddBranch(0)
	bi.GHR = 42
	r.Consumed = 1

	r.Retain()
	if r.Refs() != 2 {
		t.Fatalf("refs after Retain = %d, want 2", r.Refs())
	}
	r.Release()
	if r.Refs() != 1 || !r.Live() {
		t.Fatal("request freed while a reference remained")
	}
	r.Release()
	if r.Live() || p.FreeLen() != 1 {
		t.Fatalf("last Release did not pool the request: live=%v free=%d", r.Live(), p.FreeLen())
	}

	r2 := p.Get(5)
	if r2 != r {
		t.Fatal("pool did not reuse the freed request")
	}
	if p.Allocated() != 1 {
		t.Fatalf("reuse allocated a new request: allocated=%d", p.Allocated())
	}
	if r2.Epoch() == e1 {
		t.Fatal("epoch not bumped on reuse")
	}
	if r2.Len() != 0 || r2.Consumed != 0 || r2.Thread != 5 || r2.Branch(0) != nil {
		t.Fatalf("reused request not reset: len=%d consumed=%d thread=%d", r2.Len(), r2.Consumed, r2.Thread)
	}
}

// TestPoolIdentityValidation: every illegal transition on the free list
// must panic — that is the aliasing defence.
func TestPoolIdentityValidation(t *testing.T) {
	p := NewPool()
	r := p.Get(0)
	r.Release()
	mustPanic(t, "Release on pooled request", r.Release)
	mustPanic(t, "Retain on pooled request", r.Retain)

	r = p.Get(0)
	r.Release()
	// Corrupt the free list with a live request: Get must refuse it.
	r2 := p.Get(0)
	p.free = append(p.free, r2)
	mustPanic(t, "Get of live request", func() { p.Get(0) })
}

// TestQueueDetectsRecycledRequest simulates the pool-aliasing bug the
// epoch check exists for: a queued request released behind the queue's
// back, recycled by the pool, and then observed by the fetch stage.
func TestQueueDetectsRecycledRequest(t *testing.T) {
	p := NewPool()
	q := New(2)
	r := p.Get(0)
	in := isa.Instruction{PC: 0x40}
	*r.AppendSlot() = in
	if !q.Push(r) {
		t.Fatal("push failed")
	}
	r.Release()    // BUG (simulated): releasing the queue's reference
	r2 := p.Get(0) // pool hands the queued request to a new block
	if r2 != r {
		t.Fatal("expected the pool to recycle the released request")
	}
	mustPanic(t, "Head on recycled request", func() { q.Head() })
}

// TestQueueRing exercises wrap-around and Clear against a model slice.
func TestQueueRing(t *testing.T) {
	p := NewPool()
	q := New(3)
	if q.Cap() != 3 || q.Len() != 0 || q.Full() {
		t.Fatalf("empty queue: cap=%d len=%d full=%v", q.Cap(), q.Len(), q.Full())
	}
	in := isa.Instruction{PC: 0x10}
	push := func() *Request {
		r := p.Get(0)
		*r.AppendSlot() = in
		if !q.Push(r) {
			t.Fatal("push on non-full queue failed")
		}
		return r
	}
	for round := 0; round < 7; round++ { // 7 rounds of push/push/pop wrap the ring
		a, b := push(), push()
		if q.Head() != a {
			t.Fatal("FIFO order violated")
		}
		q.PopHead()
		if a.Live() { // the queue held the only reference
			t.Fatal("PopHead did not release")
		}
		if q.Head() != b {
			t.Fatal("FIFO order violated after pop")
		}
		q.PopHead()
	}
	a, b, c := push(), push(), push()
	_ = a
	_ = b
	_ = c
	if !q.Full() || q.Push(p.Get(0)) {
		t.Fatal("queue should be full and refuse a fourth request")
	}
	q.Clear()
	if q.Len() != 0 {
		t.Fatal("Clear left requests queued")
	}
	if a.Live() || b.Live() || c.Live() {
		t.Fatal("Clear did not release the queued requests")
	}
}

// TestRequestBranchStorage checks the inline branch index: metadata
// attaches to the right instruction, other slots stay nil, and both
// overflow conditions panic.
func TestRequestBranchStorage(t *testing.T) {
	p := NewPool()
	r := p.Get(0)
	for i := 0; i < 4; i++ {
		in := isa.Instruction{PC: isa.Addr(0x1000 + 4*i)}
		*r.AppendSlot() = in
	}
	bi := r.AddBranch(2)
	bi.PredTaken = true
	bi.BlockInstrs = 3
	for i := 0; i < 4; i++ {
		got := r.Branch(i)
		if i == 2 {
			if got == nil || !got.PredTaken || got.BlockInstrs != 3 {
				t.Fatalf("Branch(2) = %+v", got)
			}
		} else if got != nil {
			t.Fatalf("Branch(%d) unexpectedly non-nil", i)
		}
	}
	mustPanic(t, "double AddBranch on one instruction", func() { r.AddBranch(2) })

	if r.NextPC() != 0x1000 || r.Remaining() != 4 {
		t.Fatalf("NextPC=%#x Remaining=%d", r.NextPC(), r.Remaining())
	}
	r.Consumed = 3
	if r.NextPC() != 0x100c || r.Remaining() != 1 {
		t.Fatalf("after consume: NextPC=%#x Remaining=%d", r.NextPC(), r.Remaining())
	}

	full := p.Get(0)
	for i := 0; i < MaxInstrs; i++ {
		in := isa.Instruction{PC: isa.Addr(4 * i)}
		*full.AppendSlot() = in
	}
	mustPanic(t, "AppendSlot beyond MaxInstrs", func() { full.AppendSlot() })
}
