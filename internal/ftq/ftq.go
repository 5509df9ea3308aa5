// Package ftq implements the fetch target queue of the decoupled front-end
// and the fetch-request descriptors that flow through it. The prediction
// stage pushes one fetch block per cycle into the selected thread's FTQ;
// the fetch stage drains FTQs to drive I-cache accesses (Reinman et al.,
// adopted for SMT by the paper).
//
// Requests are pooled: the prediction stage acquires one from a per-thread
// Pool, fills its fixed-capacity backing arrays in place, and pushes it into
// the FTQ. Nothing about a request is heap-allocated per block, so the
// prediction stage is allocation-free in steady state.
//
// # Lifetime rules
//
// A Request is reference-counted. Pool.Get returns it with one reference
// (the creator's), which Queue.Push takes over. From then on:
//
//   - the FTQ holds one reference until the request is fully consumed
//     (Queue.PopHead) or squashed away (Queue.Clear on recovery);
//   - every in-flight uop that carries a pointer to one of the request's
//     inline BranchInfo records holds one reference (Retain at fetch,
//     Release when the uop commits or is squashed).
//
// When the last reference drops, the request returns to its pool's free
// list automatically. Identity is validated on every transition: acquiring
// a live request, releasing a pooled one, or observing a queued request
// whose epoch changed (it was recycled behind the queue's back) all panic,
// mirroring the identity-validated uop free list in internal/core.
package ftq

import (
	"fmt"

	"smtfetch/internal/bpred"
	"smtfetch/internal/isa"
)

// MaxInstrs bounds any fetch block's length in instructions and sizes the
// request's inline instruction array (the stream predictor forms the
// longest blocks).
const MaxInstrs = bpred.MaxStreamLen

// maxBranches sizes the inline per-request BranchInfo storage. Every engine
// ends a block at the first instruction that carries prediction metadata,
// so one slot suffices; the second is slack for future engines that span
// predicted-not-taken branches with explicit metadata.
const maxBranches = 2

// ResolveStage says where a branch's (mis)prediction is detected.
type ResolveStage uint8

const (
	// ResolveNone marks correctly-predicted branches.
	ResolveNone ResolveStage = iota
	// ResolveDecode marks misfetches: the target structure missed but
	// decode can compute the correct target (direct jumps/calls).
	ResolveDecode
	// ResolveExecute marks true mispredictions: wrong conditional
	// direction, wrong indirect target, wrong return address.
	ResolveExecute
)

// BranchInfo carries per-branch prediction metadata from the prediction
// stage to resolution (decode/execute) and training (commit). It is stored
// inline in the owning Request; pointers to it stay valid for as long as
// the holder keeps a reference on the request.
type BranchInfo struct {
	// PredTaken / PredTarget are the front-end's prediction.
	PredTaken  bool
	PredTarget isa.Addr
	// Resolve says where a wrong prediction is detected; ResolveNone for
	// correct predictions.
	Resolve ResolveStage

	// GHR is the global history the direction prediction used (training
	// key, and restored on recovery).
	GHR uint64
	// RASCp / PathCp checkpoint the RAS and path history just before this
	// branch's speculative update, for recovery.
	RASCp  bpred.RASCheckpoint
	PathCp bpred.PathHistory
	// BlockStart is the fetch block's start address (FTB/stream training
	// key).
	BlockStart isa.Addr
	// BlockInstrs is the branch's position in its fetch block, in
	// instructions, terminator included (FTB/stream training payload).
	BlockInstrs int
	// StreamPredicted marks blocks the stream predictor supplied (vs the
	// sequential fallback); used for stream accuracy accounting.
	StreamPredicted bool
	// UsedRAS marks return predictions taken from the RAS.
	UsedRAS bool
}

// Request is one fetch block: a unit of prediction holding the actual
// instructions on the (possibly wrong) predicted path. The fetch stage may
// take several cycles to drain one request if the block is longer than the
// fetch width. Instructions and branch metadata live in fixed-capacity
// inline arrays; see the package comment for the pooling lifetime rules.
type Request struct {
	Thread int
	Start  isa.Addr
	// WrongPath marks blocks generated while the thread was known (to the
	// simulator, not the hardware) to be on a wrong path.
	WrongPath bool
	// Consumed counts instructions already delivered to the fetch buffer.
	Consumed int

	n      int
	instrs [MaxInstrs]isa.Instruction
	// brIdx[i] is 1+the index into branches of instruction i's metadata,
	// or 0 when instruction i carries none.
	brIdx    [MaxInstrs]uint8
	nbr      int
	branches [maxBranches]BranchInfo

	pool   *Pool  //smtfetch:transient owning pool, bound at acquisition
	refs   int32  //smtfetch:transient refcount rebuilt by Retain during restore re-linking
	pooled bool   //smtfetch:transient pool-membership flag managed by acquire/release
	epoch  uint64 //smtfetch:transient recycling stamp; a restored request is a fresh acquisition
}

// Len returns the number of instructions in the block.
//
//smtfetch:hotpath
func (r *Request) Len() int { return r.n }

// Instr returns the i-th instruction of the block.
//
//smtfetch:hotpath
func (r *Request) Instr(i int) *isa.Instruction { return &r.instrs[i] }

// Branch returns instruction i's prediction metadata, or nil when it
// carries none (or i is out of range — reset is O(1), so stale index
// slots beyond Len are never valid). The pointer stays valid while the
// caller holds a reference on the request.
//
//smtfetch:hotpath
func (r *Request) Branch(i int) *BranchInfo {
	if i < r.n {
		if k := r.brIdx[i]; k != 0 {
			return &r.branches[k-1]
		}
	}
	return nil
}

// AppendSlot extends the block by one instruction and returns its slot,
// which still holds whatever a previous use left there: the caller must
// overwrite every field.
//
//smtfetch:hotpath
func (r *Request) AppendSlot() *isa.Instruction {
	if r.n >= MaxInstrs {
		panic("ftq: fetch block overflows MaxInstrs")
	}
	p := &r.instrs[r.n]
	r.brIdx[r.n] = 0
	r.n++
	return p
}

// AddBranch attaches a zeroed BranchInfo to instruction i and returns it
// for the caller to fill in place.
//
//smtfetch:hotpath
func (r *Request) AddBranch(i int) *BranchInfo {
	if r.brIdx[i] != 0 {
		panic("ftq: instruction already carries branch metadata")
	}
	if r.nbr >= maxBranches {
		panic("ftq: request overflows inline branch storage")
	}
	bi := &r.branches[r.nbr]
	*bi = BranchInfo{}
	r.nbr++
	r.brIdx[i] = uint8(r.nbr)
	return bi
}

// Remaining returns the number of instructions not yet delivered.
//
//smtfetch:hotpath
func (r *Request) Remaining() int { return r.n - r.Consumed }

// NextPC returns the address of the next undelivered instruction.
//
//smtfetch:hotpath
func (r *Request) NextPC() isa.Addr {
	return r.instrs[r.Consumed].PC
}

// Live reports whether the request is checked out of its pool.
func (r *Request) Live() bool { return !r.pooled }

// Refs returns the current reference count (invariant checks in tests).
func (r *Request) Refs() int { return int(r.refs) }

// Epoch returns the request's reuse generation: it increments every time
// the request leaves the pool, so a holder can detect recycling.
func (r *Request) Epoch() uint64 { return r.epoch }

// Retain adds a reference. Only live requests may be retained.
//
//smtfetch:hotpath
func (r *Request) Retain() {
	if r.pooled {
		panic("ftq: Retain on a pooled request")
	}
	r.refs++
}

// Release drops a reference; the last one returns the request to its pool.
//
//smtfetch:hotpath
func (r *Request) Release() {
	if r.pooled {
		panic("ftq: Release on a pooled request (double free)")
	}
	if r.refs <= 0 {
		panic("ftq: Release without matching reference")
	}
	r.refs--
	if r.refs == 0 {
		r.pooled = true
		//smtfetch:allowalloc pool free-list capacity converges to the allocated request population
		r.pool.free = append(r.pool.free, r)
	}
}

// Pool is a free list of Requests, one per thread front-end. It grows on
// demand and never shrinks: the steady-state working set (FTQ capacity plus
// requests pinned by in-flight branch uops) is reached within the warm-up
// phase, after which Get never allocates.
type Pool struct {
	free []*Request
	// slab is the current allocation block: requests are created
	// slabSize at a time so working-set growth (rare bursts when the
	// back-end backs up) costs one heap allocation per slab, not per
	// request.
	slab []Request
	// allocated counts requests ever created by Get; once the working set
	// is warm it must stop growing (leak detector for tests).
	allocated int
}

// slabSize is the pool's allocation granularity in requests.
const slabSize = 16

// NewPool returns an empty pool.
func NewPool() *Pool { return &Pool{} }

// Get returns a reset, live request with one reference, owned by thread.
//
//smtfetch:hotpath
func (p *Pool) Get(thread int) *Request {
	var r *Request
	if n := len(p.free); n > 0 {
		r = p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
		if !r.pooled {
			panic("ftq: live request found on the free list")
		}
	} else {
		if len(p.slab) == 0 {
			//smtfetch:allowalloc slab growth: one heap allocation per slabSize requests, only while the working set still grows
			p.slab = make([]Request, slabSize)
		}
		r = &p.slab[0]
		p.slab = p.slab[1:]
		r.pool = p
		r.pooled = true
		p.allocated++
	}
	r.pooled = false
	r.epoch++
	r.refs = 1
	r.Thread = thread
	r.Start = 0
	r.WrongPath = false
	r.Consumed = 0
	r.n = 0
	r.nbr = 0
	return r
}

// FreeLen returns the number of pooled requests.
func (p *Pool) FreeLen() int { return len(p.free) }

// Allocated returns the number of requests ever created by Get.
func (p *Pool) Allocated() int { return p.allocated }

// ForEachFree visits every pooled request (invariant checks in tests).
func (p *Pool) ForEachFree(fn func(*Request)) {
	for _, r := range p.free {
		fn(r)
	}
}

// Queue is one thread's fetch target queue: a bounded FIFO of requests,
// backed by a fixed ring so pushes and pops never allocate. The queue owns
// one reference on every request it holds and records the request's epoch
// at push time; a queued request whose epoch changed was recycled while
// queued (a pool-aliasing bug), and Head/PopHead panic on it.
type Queue struct {
	reqs   []*Request
	epochs []uint64 //smtfetch:transient aliasing-guard stamps re-recorded at push during decode
	head   int
	n      int
}

// New returns an empty FTQ with the given capacity (Table 3: 4 entries).
func New(capacity int) *Queue {
	if capacity < 1 {
		capacity = 1
	}
	return &Queue{reqs: make([]*Request, capacity), epochs: make([]uint64, capacity)}
}

// Cap returns the queue capacity.
func (q *Queue) Cap() int { return len(q.reqs) }

// Len returns the number of queued requests.
//
//smtfetch:hotpath
func (q *Queue) Len() int { return q.n }

// Full reports whether the queue is at capacity.
//
//smtfetch:hotpath
func (q *Queue) Full() bool { return q.n >= len(q.reqs) }

// Push appends a request, taking over the caller's reference; it reports
// false (and leaves the reference with the caller) if the queue is full.
//
//smtfetch:hotpath
func (q *Queue) Push(r *Request) bool {
	if q.Full() {
		return false
	}
	i := (q.head + q.n) % len(q.reqs)
	q.reqs[i] = r
	q.epochs[i] = r.epoch
	q.n++
	return true
}

// Head returns the oldest request, or nil when empty.
//
//smtfetch:hotpath
func (q *Queue) Head() *Request {
	if q.n == 0 {
		return nil
	}
	r := q.reqs[q.head]
	if r.epoch != q.epochs[q.head] || r.pooled {
		panic(fmt.Sprintf("ftq: queued request recycled while queued (epoch %d, queued at %d)", r.epoch, q.epochs[q.head]))
	}
	return r
}

// PopHead removes the oldest request (after the fetch stage fully consumed
// it) and drops the queue's reference on it.
//
//smtfetch:hotpath
func (q *Queue) PopHead() {
	if q.n == 0 {
		return
	}
	r := q.Head()
	q.reqs[q.head] = nil
	q.head = (q.head + 1) % len(q.reqs)
	q.n--
	r.Release()
}

// Clear empties the queue (front-end squash), releasing every request.
//
//smtfetch:hotpath
func (q *Queue) Clear() {
	for q.n > 0 {
		q.PopHead()
	}
	q.head = 0
}

// Each visits the queued requests oldest-first (invariant checks in tests).
func (q *Queue) Each(fn func(*Request)) {
	for i := 0; i < q.n; i++ {
		fn(q.reqs[(q.head+i)%len(q.reqs)])
	}
}
