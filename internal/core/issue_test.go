package core

import (
	"bytes"
	"testing"

	"smtfetch/internal/config"
	"smtfetch/internal/isa"
	"smtfetch/internal/pipeline"
)

// depReadyRef is the issue stage's readiness predicate as it was polled for
// every queued uop every cycle before issue became event-driven. The
// event-driven stage must agree with it; it is kept here as the reference.
func (s *Sim) depReadyRef(u *pipeline.UOp, d uint16) bool {
	if d == 0 || uint64(d) > u.PathSeq {
		return true
	}
	want := u.PathSeq - uint64(d)
	p := s.threads[u.Thread].ring[want&((1<<ringBits)-1)]
	if p == nil || p.PathSeq != want || p.Thread != u.Thread || p.Ghost != u.Ghost || p.Squashed {
		return true
	}
	if !p.HasDest {
		return true
	}
	return p.Done && p.ReadyAt <= s.now
}

// checkWakeInvariant asserts the property that makes event-driven issue
// exact: every queued uop is either an issue candidate (listed once) or
// parked on the producer of its first unsatisfied dependence, which the
// polling predicate still reports as not ready. It returns the number of
// parked uops.
func checkWakeInvariant(t *testing.T, s *Sim, when string) int {
	t.Helper()
	parked := 0
	for kind, q := range s.iqs {
		listed := map[*pipeline.UOp]int{}
		q.EachCandidate(func(u *pipeline.UOp) { listed[u]++ })
		queued := 0
		q.Each(func(u *pipeline.UOp) {
			queued++
			p := u.WaitingOn()
			switch n := listed[u]; {
			case n > 1:
				t.Fatalf("%s: queue %d lists a uop as candidate %d times", when, kind, n)
			case n == 1 && p != nil:
				t.Fatalf("%s: queue %d: uop is both a candidate and parked", when, kind)
			case n == 0 && p == nil:
				t.Fatalf("%s: queue %d: uop (GSeq %d) is neither a candidate nor parked: it would never issue", when, kind, u.GSeq)
			}
			if p == nil {
				return
			}
			parked++
			d := u.Dep1
			if d == 0 {
				d = u.Dep2
			}
			if d == 0 {
				t.Fatalf("%s: uop (GSeq %d) parked with no unsatisfied dependence", when, u.GSeq)
			}
			if s.depReadyRef(u, d) {
				t.Fatalf("%s: uop (GSeq %d) parked on a producer the polling predicate reports ready: a wake-up was missed", when, u.GSeq)
			}
			want := u.PathSeq - uint64(d)
			if s.threads[u.Thread].ring[want&((1<<ringBits)-1)] != p {
				t.Fatalf("%s: uop (GSeq %d) parked on a uop that is not its producer", when, u.GSeq)
			}
		})
		if len(listed) > queued {
			t.Fatalf("%s: queue %d lists %d candidates for %d queued uops", when, kind, len(listed), queued)
		}
		for u := range listed {
			if u.Squashed || u.Flushed {
				t.Fatalf("%s: queue %d lists a squashed or flushed candidate", when, kind)
			}
		}
	}
	return parked
}

// runChecked advances s by n cycles, checking the wake-up invariant after
// every one, and returns the total of parked uops seen.
func runChecked(t *testing.T, s *Sim, n int, what string) int {
	t.Helper()
	parked := 0
	for i := 0; i < n; i++ {
		s.Cycle()
		parked += checkWakeInvariant(t, s, what)
	}
	return parked
}

// TestWakeInvariantAllPolicies checks the wake-up invariant every cycle
// under all seven fetch policies (FLUSH flushes and replays) and all three
// engines.
func TestWakeInvariantAllPolicies(t *testing.T) {
	cycles := 20_000
	if testing.Short() {
		cycles = 5_000
	}
	for _, pol := range config.Policies() {
		pol := pol
		t.Run(pol.String(), func(t *testing.T) {
			s := newPolicySim(t, pol, 0x3A4E)
			if runChecked(t, s, cycles, pol.String()) == 0 {
				t.Fatal("no uop was ever parked; the wait lists went untested")
			}
			if pol == config.Flush && (s.st.Flushes == 0 || s.st.Replayed == 0) {
				t.Fatalf("FLUSH run had %d flushes, %d replays; the flush path went untested", s.st.Flushes, s.st.Replayed)
			}
		})
	}
	for _, eng := range []config.Engine{config.GShareBTB, config.GSkewFTB, config.StreamFetch} {
		s := newTestSim(t, eng, 0x3A4F)
		runChecked(t, s, cycles, eng.String())
	}
}

// TestWakeInvariantAcrossRestore snapshots a FLUSH run mid-flight, restores
// it (which makes every queued uop a candidate), and runs original and
// restored simulators in lockstep: the invariant holds on the restored one
// and both stay byte-identical.
func TestWakeInvariantAcrossRestore(t *testing.T) {
	fp := config.FetchPolicy{Policy: config.Flush, Threads: 2, Width: 8}
	a := newSnapSim(t, config.StreamFetch, fp, 0x3A50)
	runChecked(t, a, 7_000, "before snapshot")
	blob, err := a.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	b := newSnapSim(t, config.StreamFetch, fp, 0x3A50)
	if err := b.Restore(blob); err != nil {
		t.Fatal(err)
	}
	if n := checkWakeInvariant(t, b, "after restore"); n != 0 {
		t.Fatalf("%d uops parked right after Restore, want every queued uop a candidate", n)
	}
	for i := 0; i < 5_000; i++ {
		a.Cycle()
		b.Cycle()
		checkWakeInvariant(t, b, "restored")
	}
	sa, err := a.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	sb, err := b.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sa, sb) {
		t.Fatal("restored simulator diverged from the original")
	}
}

// TestGhostEvictionWakesConsumer builds the case the second wake point
// exists for: a ghost uop, numbered by its own stream, overwrites the
// dependence-ring slot of a correct-path producer that is still executing.
// The polling predicate then treats the consumer's input as ready, so the
// consumer parked on that producer must become a candidate and issue.
func TestGhostEvictionWakesConsumer(t *testing.T) {
	s := newTestSim(t, config.StreamFetch, 0x3A51)
	const th = 0
	ts := &s.threads[th]

	prod := s.allocUOp()
	prod.Thread = th
	prod.PathSeq = 100
	prod.Class = isa.IntMul
	prod.HasDest = true
	prod.Dispatched, prod.Issued = true, true
	prod.ReadyAt = 1 << 40 // still executing
	ts.ring[prod.PathSeq&((1<<ringBits)-1)] = prod

	cons := s.allocUOp()
	cons.Thread = th
	cons.PathSeq = 103
	cons.Dep1 = 3
	cons.Class = isa.IntALU
	cons.HasDest = true
	q := s.iqs[pipeline.QueueKind(cons.Class)]
	q.Add(cons)

	s.issue()
	if cons.Issued || cons.WaitingOn() != prod {
		t.Fatalf("consumer issued=%v, parked on %p; want parked on the producer %p", cons.Issued, cons.WaitingOn(), prod)
	}
	checkWakeInvariant(t, s, "parked")

	ghost := s.allocUOp()
	ghost.Thread = th
	ghost.Ghost = true
	ghost.PathSeq = prod.PathSeq + 3<<ringBits // same ring slot
	ghost.Class = isa.IntALU
	s.deliver(ts, th, ghost)

	if !s.depReadyRef(cons, cons.Dep1) {
		t.Fatal("setup: the polling predicate still reports the evicted producer as pending")
	}
	if cons.WaitingOn() != nil {
		t.Fatal("ghost eviction left the consumer parked")
	}
	checkWakeInvariant(t, s, "evicted")
	s.now++
	s.issue()
	if !cons.Issued {
		t.Fatal("consumer did not issue after its producer's ring slot was overwritten")
	}
}
