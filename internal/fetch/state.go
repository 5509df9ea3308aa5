package fetch

// Warm-state snapshot support and functional fast-forward for the
// front-end.
//
// Snapshot layout: the core owns the request table (it knows which
// requests are pinned by in-flight uops); this file serializes the shared
// predictor tables plus per-thread speculative state, with FTQ contents
// written as indices into the core's table. On restore the core acquires
// fresh requests from the per-thread pools first, then calls DecodeState
// with a lookup over them, so queue pushes re-establish references through
// the ordinary protocol.
//
// All snapshot code here is cold-path, outside the cycle loop.

import (
	"fmt"

	"smtfetch/internal/bpred"
	"smtfetch/internal/config"
	"smtfetch/internal/ftq"
	"smtfetch/internal/isa"
	"smtfetch/internal/snap"
)

// Pool returns thread t's request pool (snapshot restore and invariant
// tests).
func (f *FrontEnd) Pool(t int) *ftq.Pool { return f.threads[t].pool }

// EncodeState serializes the front-end's dynamic state. reqIndex maps a
// queued request to its position in the core's request table.
func (f *FrontEnd) EncodeState(w *snap.Writer, reqIndex func(*ftq.Request) int) {
	switch f.engine {
	case config.GShareBTB:
		f.gshare.EncodeState(w)
		f.btb.EncodeState(w)
	case config.GSkewFTB:
		f.gskew.EncodeState(w)
		f.ftb.EncodeState(w)
	default:
		f.stream.EncodeState(w)
	}
	w.U64(f.Predictions)
	w.Int(len(f.threads))
	for _, tf := range f.threads {
		w.Bool(tf.wrongPath)
		w.U64(uint64(tf.nextPC))
		w.U64(tf.ghr)
		tf.ras.EncodeState(w)
		tf.path.EncodeValue(w)
		st := tf.seedR.State()
		for _, v := range st {
			w.U64(v)
		}
		tf.trace.EncodeState(w)
		w.Bool(tf.ghost != nil)
		if tf.ghost != nil {
			tf.ghost.EncodeState(w)
		}
		tf.queue.EncodeState(w, reqIndex)
	}
}

// DecodeState restores state written with EncodeState onto a freshly
// constructed front-end of identical configuration. reqLookup resolves
// request-table indices to the live requests the core pre-acquired.
func (f *FrontEnd) DecodeState(r *snap.Reader, reqLookup func(int) *ftq.Request) {
	switch f.engine {
	case config.GShareBTB:
		f.gshare.DecodeState(r)
		f.btb.DecodeState(r)
	case config.GSkewFTB:
		f.gskew.DecodeState(r)
		f.ftb.DecodeState(r)
	default:
		f.stream.DecodeState(r)
	}
	f.Predictions = r.U64()
	n := r.Int()
	if r.Err() != nil {
		return
	}
	if n != len(f.threads) {
		r.Fail("fetch: snapshot has %d threads, front-end has %d", n, len(f.threads))
		return
	}
	for _, tf := range f.threads {
		tf.wrongPath = r.Bool()
		tf.nextPC = isa.Addr(r.U64())
		tf.ghr = r.U64()
		tf.ras.DecodeState(r)
		tf.path = bpred.DecodePathHistory(r)
		var st [4]uint64
		for i := range st {
			st[i] = r.U64()
		}
		tf.seedR.SetState(st)
		tf.trace.DecodeState(r)
		hasGhost := r.Bool()
		if r.Err() != nil {
			return
		}
		if hasGhost {
			if tf.ghost == nil {
				tf.ghost = tf.prog.NewStreamAt(0, tf.prog.Entry())
			}
			tf.ghost.DecodeState(r)
		} else {
			tf.ghost = nil
		}
		tf.queue.DecodeState(r, reqLookup)
	}
}

// BeginFunctional starts a functional fast-forward phase for thread t.
// The front-end must be fully drained first: no wrong path, empty FTQ,
// and the next fetch address sitting on the committed trace.
func (f *FrontEnd) BeginFunctional(t int) {
	tf := f.threads[t]
	if tf.wrongPath || tf.queue.Len() != 0 {
		panic(fmt.Sprintf("fetch: BeginFunctional on undrained thread %d", t))
	}
	if tf.trace.PC() != tf.nextPC {
		panic(fmt.Sprintf("fetch: BeginFunctional thread %d at %#x but trace at %#x", t, tf.nextPC, tf.trace.PC()))
	}
	tf.ffBlockStart = tf.nextPC
	tf.ffBlockInstrs = 0
	tf.ffPathCp = tf.path
}

// FunctionalAdvance consumes one instruction of thread t's committed
// trace, training the predictors on the true outcome and updating the
// thread's speculative front-end state exactly as commit-time training
// plus perfect prediction would. It returns the consumed instruction by
// value. No statistics are touched — functional instructions are invisible
// to measurement.
func (f *FrontEnd) FunctionalAdvance(t int) isa.Instruction {
	tf := f.threads[t]
	var in isa.Instruction
	tf.trace.Next(&in)

	if tf.ffBlockInstrs == 0 {
		tf.ffBlockStart = in.PC
		tf.ffPathCp = tf.path
	}
	tf.ffBlockInstrs++

	if in.IsBranch() {
		f.trainFunctional(tf, &in)
	}

	// Apply the true outcome to the speculative front-end state (on the
	// committed path with perfect hindsight, speculative == architectural).
	if in.IsBranch() {
		switch in.BrKind {
		case isa.CondBranch:
			tf.ghr = tf.ghr<<1 | b2u(in.Taken)
		case isa.Call:
			tf.ras.Push(in.FallThrough)
		case isa.Return:
			tf.ras.Pop()
		}
		if in.Taken {
			tf.path.Push(in.Target)
		}
	}
	if in.Taken || tf.ffBlockInstrs >= maxBlock {
		// Taken branches end training blocks; blocks that outgrow the
		// representable length restart without training.
		tf.ffBlockInstrs = 0
	}
	tf.nextPC = in.NextPC()
	return in
}

// trainFunctional mirrors CommitBranch's per-engine training using the
// functional block tracking in place of a fetch request's BranchInfo.
func (f *FrontEnd) trainFunctional(tf *threadFE, in *isa.Instruction) {
	switch f.engine {
	case config.GShareBTB:
		if in.BrKind == isa.CondBranch {
			f.gshare.Update(in.PC, tf.ghr, in.Taken)
		}
		if in.Taken {
			f.btb.Insert(in.PC, bpred.BTBEntry{Kind: in.BrKind, Target: in.Target})
		}
	case config.GSkewFTB:
		if in.BrKind == isa.CondBranch {
			f.gskew.Update(in.PC, tf.ghr, in.Taken)
		}
		if in.Taken {
			f.ftb.Train(tf.ffBlockStart, tf.ffBlockInstrs, in.BrKind, in.Target)
			f.ftb.TakenReset(tf.ffBlockStart)
		}
	default:
		if in.Taken {
			path := tf.ffPathCp
			f.stream.Train(tf.ffBlockStart, &path, bpred.StreamPrediction{
				Length:       tf.ffBlockInstrs,
				Next:         in.Target,
				EndsInReturn: in.BrKind == isa.Return,
				EndsInCall:   in.BrKind == isa.Call,
			})
		}
	}
}

// Drained reports whether thread t's front-end is fully drained: no wrong
// path, empty FTQ, next fetch address on the committed trace.
func (f *FrontEnd) Drained(t int) bool {
	tf := f.threads[t]
	return !tf.wrongPath && tf.queue.Len() == 0 && tf.trace.PC() == tf.nextPC
}
