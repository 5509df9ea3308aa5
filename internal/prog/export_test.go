package prog

import (
	"encoding/binary"
	"io"
	"math"
)

// Dump writes every field of the program's static image — program header,
// blocks, body instructions with their memory generators, and terminators —
// in a fixed order, so a digest of it pins Build's output independently of
// how the image is laid out in memory.
func (p *Program) Dump(w io.Writer) {
	var buf [8]byte
	u := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		w.Write(buf[:])
	}
	i := func(v int) { u(uint64(int64(v))) }
	b := func(v bool) {
		if v {
			u(1)
		} else {
			u(0)
		}
	}
	f := func(v float64) { u(math.Float64bits(v)) }

	i(len(p.blocks))
	i(len(p.starts))
	for _, s := range p.starts {
		u(uint64(s))
	}
	i(len(p.entries))
	for _, e := range p.entries {
		i(e)
	}
	i(p.hotEntries)
	u(uint64(p.codeEnd))
	i(p.numStaticInstr)
	i(p.numStaticBranch)
	for k := range p.blocks {
		blk := p.block(k)
		i(blk.index)
		u(uint64(blk.addr))
		i(blk.next)
		i(len(blk.body))
		for j := range blk.body {
			si := &blk.body[j]
			u(uint64(si.class))
			u(uint64(si.dep1))
			u(uint64(si.dep2))
			b(si.hasDest)
			i(si.id)
			g := p.memOf(si)
			b(g != nil)
			if g != nil {
				u(uint64(g.kind))
				u(g.base)
				u(g.size)
				u(g.stride)
				b(g.cold)
				b(g.chase)
			}
		}
		t := &blk.term
		u(uint64(t.kind))
		u(uint64(t.dep1))
		u(uint64(t.class))
		f(t.pTaken)
		i(t.tripCount)
		u(t.histMask)
		f(t.noise)
		i(t.target)
		targets := p.indTargets[t.ind : t.ind+int32(t.nInd)]
		weights := p.indWeights[t.ind : t.ind+int32(t.nInd)]
		i(len(targets))
		for _, x := range targets {
			i(x)
		}
		i(len(weights))
		for _, x := range weights {
			f(x)
		}
		i(t.id)
	}
}

// block returns block k.
func (p *Program) block(k int) *Block { return &p.blocks[k] }

// memOf returns si's memory generator, or nil.
func (p *Program) memOf(si *staticInstr) *memGen {
	if si.mem == noMem {
		return nil
	}
	return &p.mems[si.mem]
}
