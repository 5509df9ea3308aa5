package fetch

import (
	"smtfetch/internal/ftq"
	"smtfetch/internal/isa"
)

// resolveStageFor classifies where a wrong prediction of `in` is detected.
// Direct jumps and calls are verifiable at decode (the target is in the
// instruction); so are blocks whose predicted terminator turns out not to
// be a branch at all, and conditional branches whose direction was right
// but whose cached target was stale. Everything else — wrong conditional
// direction, wrong indirect target, wrong return address — waits for
// execute.
//
//smtfetch:hotpath
func resolveStageFor(in *isa.Instruction, predTaken bool) ftq.ResolveStage {
	if !in.IsBranch() {
		return ftq.ResolveDecode
	}
	switch in.BrKind {
	case isa.Jump, isa.Call:
		return ftq.ResolveDecode
	case isa.CondBranch:
		if predTaken == in.Taken {
			return ftq.ResolveDecode // direction right, stale target
		}
		return ftq.ResolveExecute
	default: // Return, IndirectJump
		return ftq.ResolveExecute
	}
}

// checkpointInfo attaches a BranchInfo to instruction i of the request,
// seeded with the thread's speculative-state checkpoints taken before any
// update for the branch itself. The record lives inline in the request;
// the returned pointer is for the caller to finish filling.
//
//smtfetch:hotpath
func (tf *threadFE) checkpointInfo(req *ftq.Request, i int, blockStart isa.Addr, blockInstrs int) *ftq.BranchInfo {
	info := req.AddBranch(i)
	info.GHR = tf.ghr
	info.RASCp = tf.ras.Checkpoint()
	info.PathCp = tf.path
	info.BlockStart = blockStart
	info.BlockInstrs = blockInstrs
	return info
}

// finishBranch applies the universal end-of-block protocol for a predicted
// terminating branch: compare the predicted successor with the path truth,
// set up wrong-path mode or continue, and finish the request's inline
// BranchInfo (info already lives in req; only Resolve remains to be set).
//
//smtfetch:hotpath
func (f *FrontEnd) finishBranch(tf *threadFE, in *isa.Instruction,
	info *ftq.BranchInfo, predTaken bool, predTarget isa.Addr) {

	info.PredTaken = predTaken
	info.PredTarget = predTarget
	predNext := in.FallThrough
	if predTaken {
		predNext = predTarget
	}
	truthNext := in.NextPC()

	if predNext == truthNext {
		info.Resolve = ftq.ResolveNone
		tf.nextPC = truthNext
		return
	}
	if tf.wrongPath {
		// On a wrong path the front-end's prediction *defines* the
		// path: steer the ghost along it and never schedule recovery.
		info.Resolve = ftq.ResolveNone
		tf.ghost.Redirect(predNext)
		tf.nextPC = predNext
		return
	}
	info.Resolve = resolveStageFor(in, predTaken)
	tf.enterWrongPath(predNext, f.ghostAt(tf, predNext))
}

// embeddedDivergence handles a branch inside a fetch block that the
// front-end implicitly predicted not-taken but that is actually taken on
// the current path. On the committed path this starts a wrong path at the
// branch's fall-through; on a wrong path the ghost is simply steered back
// to the implicit prediction. It returns true if the block must be
// truncated at this instruction.
//
//smtfetch:hotpath
func (f *FrontEnd) embeddedDivergence(tf *threadFE, req *ftq.Request, i int, in *isa.Instruction, start isa.Addr) bool {
	if tf.wrongPath {
		tf.ghost.Redirect(in.FallThrough)
		tf.nextPC = in.FallThrough
		return false // keep scanning sequentially
	}
	info := tf.checkpointInfo(req, i, start, i+1)
	info.PredTaken = false
	info.Resolve = resolveStageFor(in, false)
	tf.enterWrongPath(in.FallThrough, f.ghostAt(tf, in.FallThrough))
	return true
}

// take consumes the next instruction from the thread's current path into
// the request's inline instruction array.
//
//smtfetch:hotpath
func take(tf *threadFE, req *ftq.Request) *isa.Instruction {
	in := req.AppendSlot()
	tf.source().Next(in)
	return in
}

// predictBTB forms one fetch block for the gshare+BTB engine: the block
// ends at the first branch on the path (one direction prediction per
// cycle => one basic block per fetch request).
//
//smtfetch:hotpath
func (f *FrontEnd) predictBTB(tf *threadFE, req *ftq.Request) {
	start := tf.nextPC
	req.Start, req.WrongPath = start, tf.wrongPath
	for i := 0; i < maxBlock; i++ {
		in := take(tf, req)
		if !in.IsBranch() {
			tf.nextPC = in.PC + isa.InstrSize
			continue
		}

		info := tf.checkpointInfo(req, i, start, i+1)
		entry, hit := f.btb.Lookup(in.PC)
		predTaken, predTarget := false, isa.Addr(0)
		switch in.BrKind {
		case isa.CondBranch:
			f.Predictions++
			if f.gshare.Predict(in.PC, tf.ghr) && hit {
				predTaken, predTarget = true, entry.Target
			}
			tf.ghr = tf.ghr<<1 | b2u(predTaken)
		case isa.Jump:
			if hit {
				predTaken, predTarget = true, entry.Target
			}
		case isa.Call:
			if hit {
				predTaken, predTarget = true, entry.Target
				tf.ras.Push(in.PC + isa.InstrSize)
			}
		case isa.Return:
			if ra, ok := tf.ras.Pop(); ok {
				predTaken, predTarget = true, ra
				info.UsedRAS = true
			} else if hit {
				predTaken, predTarget = true, entry.Target
			}
		case isa.IndirectJump:
			if hit {
				predTaken, predTarget = true, entry.Target
			}
		}
		if predTaken {
			tf.path.Push(predTarget)
		}
		f.finishBranch(tf, in, info, predTaken, predTarget)
		return
	}
}

// predictFTB forms one fetch block for the gskew+FTB engine. On an FTB hit
// the block runs to the entry's terminating ever-taken branch, spanning
// embedded never-taken branches; the terminator's direction comes from
// gskew. On a miss the front-end falls back to sequential fetch.
//
//smtfetch:hotpath
func (f *FrontEnd) predictFTB(tf *threadFE, req *ftq.Request) {
	start := tf.nextPC
	req.Start, req.WrongPath = start, tf.wrongPath

	entry, hit := f.ftb.Lookup(start)
	predLen := f.cfg.FetchPolicy.Width // sequential fallback length
	if hit {
		predLen = entry.Instrs
	}
	if predLen > maxBlock {
		predLen = maxBlock
	}

	for i := 0; i < predLen; i++ {
		in := take(tf, req)
		terminator := hit && i == predLen-1
		if !terminator {
			tf.nextPC = in.PC + isa.InstrSize
			if in.IsBranch() && in.Taken {
				if f.embeddedDivergence(tf, req, i, in, start) {
					return
				}
			}
			continue
		}

		// Predicted terminating branch of the FTB entry.
		info := tf.checkpointInfo(req, i, start, i+1)
		predTaken, predTarget := false, isa.Addr(0)
		switch entry.Kind {
		case isa.CondBranch:
			f.Predictions++
			predTaken = f.gskew.Predict(in.PC, tf.ghr)
			predTarget = entry.Target
			tf.ghr = tf.ghr<<1 | b2u(predTaken)
		case isa.Return:
			predTaken = true
			if ra, ok := tf.ras.Pop(); ok {
				predTarget = ra
				info.UsedRAS = true
			} else {
				predTarget = entry.Target
			}
		case isa.Call:
			predTaken, predTarget = true, entry.Target
			tf.ras.Push(in.PC + isa.InstrSize)
		default: // Jump, IndirectJump
			predTaken, predTarget = true, entry.Target
		}
		if predTaken {
			tf.path.Push(predTarget)
		}
		f.finishBranch(tf, in, info, predTaken, predTarget)
		return
	}
	// Sequential fallback block (or FTB-hit block cut short by a
	// divergence handled above): continue at the next sequential address.
}

// predictStream forms one fetch block for the stream engine: the stream
// predictor supplies (length, next-stream start); the block is the whole
// stream, embedded not-taken branches included. On a miss the front-end
// falls back to sequential fetch.
//
//smtfetch:hotpath
func (f *FrontEnd) predictStream(tf *threadFE, req *ftq.Request) {
	start := tf.nextPC
	req.Start, req.WrongPath = start, tf.wrongPath

	pred, hit := f.stream.Predict(start, &tf.path)
	predLen := f.cfg.FetchPolicy.Width
	if hit {
		predLen = pred.Length
	}
	if predLen > maxBlock {
		predLen = maxBlock
	}
	if predLen < 1 {
		predLen = 1
	}

	for i := 0; i < predLen; i++ {
		in := take(tf, req)
		terminator := hit && i == predLen-1
		if !terminator {
			tf.nextPC = in.PC + isa.InstrSize
			if in.IsBranch() && in.Taken {
				if f.embeddedDivergence(tf, req, i, in, start) {
					return
				}
			}
			continue
		}

		// Predicted stream terminator: always predicted taken.
		f.Predictions++
		info := tf.checkpointInfo(req, i, start, i+1)
		info.StreamPredicted = true
		predTarget := pred.Next
		if pred.EndsInReturn {
			if ra, ok := tf.ras.Pop(); ok {
				predTarget = ra
				info.UsedRAS = true
			}
		}
		if pred.EndsInCall {
			tf.ras.Push(in.PC + isa.InstrSize)
		}
		tf.path.Push(predTarget)
		f.finishBranch(tf, in, info, true, predTarget)
		return
	}
}
