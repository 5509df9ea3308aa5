package pipeline

// IssueQueue is one of the three shared instruction queues (int,
// load/store, fp). Entries stay from dispatch until issue, in dispatch
// (age) order.
//
// Issue is event-driven: only candidates are examined each cycle. A uop is
// a candidate from dispatch until the issue stage finds it waiting on a
// producer and parks it on that producer's wait list (UOp.ParkOn); it
// becomes a candidate again when the core wakes it (Wake). Candidates are
// kept with their dispatch sequence, so Issue can visit them oldest-first
// and remove issued entries without dereferencing any other entry.
type IssueQueue struct {
	cap     int
	seq     uint64
	entries []iqEntry // dispatch order
	cands   []iqEntry // candidates, unordered until Issue sorts them
	issued  []uint64  // Issue scratch: sequences issued this call
}

// iqEntry is one queued uop with its dispatch sequence.
type iqEntry struct {
	seq uint64
	u   *UOp
}

// NewIssueQueue returns an empty queue with the given capacity.
func NewIssueQueue(capacity int) *IssueQueue {
	return &IssueQueue{
		cap:     capacity,
		entries: make([]iqEntry, 0, capacity),
		cands:   make([]iqEntry, 0, capacity),
		issued:  make([]uint64, 0, capacity),
	}
}

// Cap returns the queue capacity.
//
//smtfetch:hotpath
func (q *IssueQueue) Cap() int { return q.cap }

// Len returns the occupancy.
//
//smtfetch:hotpath
func (q *IssueQueue) Len() int { return len(q.entries) }

// LenOf returns the occupancy owned by thread t.
func (q *IssueQueue) LenOf(t int) int {
	n := 0
	for _, e := range q.entries {
		if e.u.Thread == t {
			n++
		}
	}
	return n
}

// Full reports whether the queue is at capacity.
//
//smtfetch:hotpath
func (q *IssueQueue) Full() bool { return len(q.entries) >= q.cap }

// Add dispatches u into the queue as a candidate; it reports false when
// full.
//
//smtfetch:hotpath
func (q *IssueQueue) Add(u *UOp) bool {
	if q.Full() {
		return false
	}
	q.seq++
	u.iqSeq = q.seq
	//smtfetch:allowalloc entries and cands are pre-sized to cap, which Full() bounds
	q.entries = append(q.entries, iqEntry{q.seq, u})
	//smtfetch:allowalloc entries and cands are pre-sized to cap, which Full() bounds
	q.cands = append(q.cands, iqEntry{q.seq, u})
	return true
}

// Wake makes u, a queued uop just unparked from a producer's wait list, a
// candidate again.
//
//smtfetch:hotpath
func (q *IssueQueue) Wake(u *UOp) {
	//smtfetch:allowalloc a candidate is a queued uop listed at most once, so cands never exceeds cap
	q.cands = append(q.cands, iqEntry{u.iqSeq, u})
}

// Issue calls fn on each candidate oldest-first; fn returns true when it
// issued the uop, which leaves the queue. A candidate fn parked
// (UOp.ParkOn) stops being a candidate; any other stays one.
//
//smtfetch:hotpath
func (q *IssueQueue) Issue(fn func(u *UOp) bool) {
	c := q.cands
	for i := 1; i < len(c); i++ {
		for j := i; j > 0 && c[j].seq < c[j-1].seq; j-- {
			c[j], c[j-1] = c[j-1], c[j]
		}
	}
	issued := q.issued[:0]
	out := c[:0]
	for _, e := range c {
		if fn(e.u) {
			//smtfetch:allowalloc issued is pre-sized to cap; at most every queued uop issues
			issued = append(issued, e.seq)
			continue
		}
		if e.u.waitOn == nil {
			//smtfetch:allowalloc in-place compaction: out aliases cands[:0], so append never exceeds the existing capacity
			out = append(out, e)
		}
	}
	clear(c[len(out):])
	q.cands = out
	q.issued = issued
	if len(issued) == 0 {
		return
	}
	// entries and issued are both in dispatch order: one merge pass.
	kept := q.entries[:0]
	j := 0
	for _, e := range q.entries {
		if j < len(issued) && e.seq == issued[j] {
			j++
			continue
		}
		//smtfetch:allowalloc in-place compaction: kept aliases entries[:0], so append never exceeds the existing capacity
		kept = append(kept, e)
	}
	clear(q.entries[len(kept):])
	q.entries = kept
}

// DropSquashed removes squashed (and flushed) entries without issuing
// anything, unparking each from the wait list it is on. A removed uop's
// own waiters are younger uops of its thread, so the same recovery or
// flush removes them too.
//
//smtfetch:hotpath
func (q *IssueQueue) DropSquashed() {
	kept := q.entries[:0]
	for _, e := range q.entries {
		if e.u.Squashed || e.u.Flushed {
			e.u.unpark()
			continue
		}
		//smtfetch:allowalloc in-place compaction: kept aliases entries[:0], so append never exceeds the existing capacity
		kept = append(kept, e)
	}
	clear(q.entries[len(kept):])
	q.entries = kept
	c := q.cands[:0]
	for _, e := range q.cands {
		if !e.u.Squashed && !e.u.Flushed {
			//smtfetch:allowalloc in-place compaction: c aliases cands[:0], so append never exceeds the existing capacity
			c = append(c, e)
		}
	}
	clear(q.cands[len(c):])
	q.cands = c
}

// At returns the i-th oldest entry (0 = head). The IQPOSN policy uses
// this to measure head proximity without a callback.
//
//smtfetch:hotpath
func (q *IssueQueue) At(i int) *UOp { return q.entries[i].u }

// Each calls fn on every entry oldest-first without side effects (used by
// invariant checks).
func (q *IssueQueue) Each(fn func(u *UOp)) {
	for _, e := range q.entries {
		fn(e.u)
	}
}

// EachCandidate calls fn on every issue candidate without side effects
// (used by invariant checks).
func (q *IssueQueue) EachCandidate(fn func(u *UOp)) {
	for _, e := range q.cands {
		fn(e.u)
	}
}

// RegFile is a physical register free list (just a counter: the simulator
// never tracks values).
type RegFile struct {
	total int
	free  int
}

// NewRegFile returns a register file with n registers, of which `reserved`
// are considered permanently allocated as architectural state (32 per
// thread).
func NewRegFile(n, reserved int) *RegFile {
	free := n - reserved
	if free < 0 {
		free = 0
	}
	return &RegFile{total: n, free: free}
}

// Free returns the number of allocatable registers.
//
//smtfetch:hotpath
func (r *RegFile) Free() int { return r.free }

// Alloc takes one register; it reports false when none are free.
//
//smtfetch:hotpath
func (r *RegFile) Alloc() bool {
	if r.free <= 0 {
		return false
	}
	r.free--
	return true
}

// Release returns one register to the free list.
//
//smtfetch:hotpath
func (r *RegFile) Release() {
	if r.free < r.total {
		r.free++
	}
}

// FUPool models a class of pipelined functional units as a per-cycle issue
// budget.
type FUPool struct {
	count int
	used  int
	cycle uint64
}

// NewFUPool returns a pool of n units.
func NewFUPool(n int) *FUPool { return &FUPool{count: n} }

// TryIssue consumes one unit for the given cycle; it reports false when
// all units are busy this cycle.
func (p *FUPool) TryIssue(now uint64) bool {
	if p.cycle != now {
		p.cycle = now
		p.used = 0
	}
	if p.used >= p.count {
		return false
	}
	p.used++
	return true
}
