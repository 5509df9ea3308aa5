// Package pipeline provides the out-of-order back-end structures shared by
// all SMT threads: the micro-op record, the shared reorder buffer with
// per-thread ordering, the issue queues, physical register free lists, and
// functional-unit pools. Table 3 sizes them: 256-entry ROB, 32-entry
// int/ls/fp queues, 384+384 registers, 6 int / 4 ld-st / 3 fp units.
package pipeline

import (
	"smtfetch/internal/ftq"
	"smtfetch/internal/isa"
)

// UOp is one in-flight micro-op. It embeds the dynamic instruction and adds
// the pipeline bookkeeping the simulator needs.
type UOp struct {
	isa.Instruction
	// Info carries branch-prediction metadata (nil for most
	// instructions). It points into Req's inline storage: whenever Info is
	// non-nil, Req names the pooled fetch request that owns the record and
	// on which this uop holds one reference (taken at fetch, dropped when
	// the uop commits or is squashed). Req is nil exactly when Info is.
	Info *ftq.BranchInfo //smtfetch:transient re-linked by (request, branch-slot) table index on restore
	// Req is the pooled fetch request Info points into; see Info.
	Req *ftq.Request //smtfetch:transient re-linked by request-table index on restore
	// Thread is the hardware context id.
	Thread int
	// Ghost marks wrong-path micro-ops; they consume resources but are
	// squashed rather than committed.
	Ghost bool
	// GSeq is a global, monotonically increasing age stamp; within a
	// thread it follows program (path) order.
	//
	// The embedded Instruction carries PathSeq, the instruction's position
	// in its source stream, against which dependence distances are
	// resolved. (UOp used to declare a second PathSeq field that shadowed
	// the instruction's and was never written, which silently disabled the
	// dependence ring.)
	GSeq uint64

	// SavedDep1/SavedDep2 preserve the instruction's original dependence
	// distances, captured at first fetch: the issue stage clears
	// Dep1/Dep2 as they are satisfied (readiness is monotonic, so the
	// check is memoized), and a FLUSH replay must restore them so a
	// refetched consumer waits for its refetched producer again.
	SavedDep1, SavedDep2 uint16

	// FetchedAt is the cycle the uop entered the fetch buffer; EnterFront
	// the cycle it left the fetch buffer into decode.
	FetchedAt  uint64
	EnterFront uint64
	// DecodeAt is the cycle decode inspects the uop (misfetch recovery
	// point).
	DecodeAt uint64

	// Dispatched/Issued/Done track back-end progress; ReadyAt is the
	// cycle the result becomes available once issued.
	Dispatched bool
	Issued     bool
	Done       bool
	ReadyAt    uint64

	// InICount marks uops currently counted by the ICOUNT policy.
	InICount bool
	// InBRCount marks branch uops currently counted as unresolved by the
	// BRCOUNT policy (fetched, not yet executed).
	InBRCount bool
	// DMiss marks issued loads whose D-cache miss is still outstanding
	// (the MISSCOUNT policy's signal).
	DMiss bool
	// LongMiss marks issued loads identified as long-latency (L2 miss);
	// the STALL and FLUSH policies gate their thread's fetch on it.
	LongMiss bool
	// Squashed marks uops removed by misprediction recovery.
	Squashed bool //smtfetch:transient squashed uops are canonicalized out of the stream
	// Flushed marks uops removed from the pipeline by the FLUSH policy;
	// unlike squashed uops they stay alive in their thread's replay queue
	// (keeping their fetch-request reference) and re-enter the fetch
	// buffer when the triggering load's miss resolves.
	Flushed bool
	// Recovered marks resolve-stage branches whose recovery already ran.
	Recovered bool

	// Issue-stage wake-up state (see IssueQueue). waitOn is the producer
	// this queued uop is parked on until its first unsatisfied dependence
	// may have become ready; waiters heads this uop's own list of parked
	// consumers, linked through waitPrev/waitNext. iqSeq is the uop's
	// dispatch sequence in its issue queue.
	waitOn   *UOp   //smtfetch:transient wake-up link; Restore makes every queued uop a candidate
	waiters  *UOp   //smtfetch:transient wake-up link; Restore makes every queued uop a candidate
	waitPrev *UOp   //smtfetch:transient wake-up link; Restore makes every queued uop a candidate
	waitNext *UOp   //smtfetch:transient wake-up link; Restore makes every queued uop a candidate
	iqSeq    uint64 //smtfetch:transient issue-queue order stamp, renumbered when Restore re-adds the queues
}

// ParkOn parks u on producer p's wait list: u stops being an issue
// candidate until p wakes it (PopWaiter).
//
//smtfetch:hotpath
func (u *UOp) ParkOn(p *UOp) {
	u.waitOn = p
	u.waitPrev = nil
	u.waitNext = p.waiters
	if p.waiters != nil {
		p.waiters.waitPrev = u
	}
	p.waiters = u
}

// WaitingOn returns the producer u is parked on, or nil.
//
//smtfetch:hotpath
func (u *UOp) WaitingOn() *UOp { return u.waitOn }

// unpark removes u from the wait list it is parked on, if any.
//
//smtfetch:hotpath
func (u *UOp) unpark() {
	p := u.waitOn
	if p == nil {
		return
	}
	if u.waitPrev != nil {
		u.waitPrev.waitNext = u.waitNext
	} else {
		p.waiters = u.waitNext
	}
	if u.waitNext != nil {
		u.waitNext.waitPrev = u.waitPrev
	}
	u.waitOn, u.waitPrev, u.waitNext = nil, nil, nil
}

// PopWaiter unparks and returns one consumer parked on p, or nil when
// none is.
//
//smtfetch:hotpath
func (p *UOp) PopWaiter() *UOp {
	c := p.waiters
	if c != nil {
		c.unpark()
	}
	return c
}

// QueueKind maps an instruction class to its issue queue.
//
//smtfetch:hotpath
func QueueKind(c isa.Class) int {
	switch c {
	case isa.Load, isa.Store:
		return QLoadStore
	case isa.FPOp:
		return QFloat
	default:
		return QInt
	}
}

// Issue-queue indices.
const (
	QInt = iota
	QLoadStore
	QFloat
	NumQueues
)
