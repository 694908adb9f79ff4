package core

import (
	"encoding/binary"

	"minions/internal/mem"
)

// execContext is the pre-allocated scratch an Executor reuses across hops: a
// decoded-instruction cache keyed by the section's code region (header shape
// plus instruction words). Packet memory and the hop counter mutate at every
// hop, but the instructions of a TPP never do, so a switch that keeps seeing
// the same program — the common case for an installed filter — decodes and
// validates it exactly once.
type execContext struct {
	insns [MaxInsns]Instruction // decoded-insn cache
	words [MaxInsns]uint32      // raw words the cache was decoded from
	// pushRun[i] is the length (>= 2) of the maximal run of consecutive
	// PUSH instructions starting at i, or 0 when i is not the head of one.
	// Runs are fused into one bulk stat-copy superinstruction at execution:
	// the paper's flagship collection programs (PUSH [QSize] PUSH [TxBytes]
	// ...) are all-PUSH runs, so the interpreter dispatches once per program
	// instead of once per statistic.
	pushRun [MaxInsns]uint8
	n       int
	hdr     uint32 // packed bytes 0 (ver|mode), 1 (#insns), 2 (memwords), 4 (perhop)
	min     int    // minimum section length the cached shape requires
	valid   bool
}

// packHdr packs the shape-defining header bytes. Bytes 3 (hop/SP), 5 (flags)
// and 6-11 (app id, encap, checksum) vary per hop or per flow and do not
// affect decoding, so they stay out of the key.
func packHdr(s Section) uint32 {
	return uint32(s[0])<<24 | uint32(s[1])<<16 | uint32(s[2])<<8 | uint32(s[4])
}

// match reports whether s decodes to exactly the cached instructions.
func (c *execContext) match(s Section) bool {
	if !c.valid || len(s) < c.min || packHdr(s) != c.hdr {
		return false
	}
	for i := 0; i < c.n; i++ {
		off := HeaderLen + i*InsnSize
		if binary.BigEndian.Uint32(s[off:off+4]) != c.words[i] {
			return false
		}
	}
	return true
}

// fill decodes s (already validated) into the cache and marks fusable PUSH
// runs.
func (c *execContext) fill(s Section) {
	c.n = s.InsnCount()
	for i := 0; i < c.n; i++ {
		off := HeaderLen + i*InsnSize
		w := binary.BigEndian.Uint32(s[off : off+4])
		c.words[i] = w
		c.insns[i] = DecodeInsn(w)
	}
	c.pushRun = [MaxInsns]uint8{}
	for i := 0; i < c.n; {
		if c.insns[i].Op != OpPUSH {
			i++
			continue
		}
		j := i + 1
		for j < c.n && c.insns[j].Op == OpPUSH {
			j++
		}
		if j-i >= 2 {
			c.pushRun[i] = uint8(j - i)
		}
		i = j
	}
	c.hdr = packHdr(s)
	c.min = HeaderLen + c.n*InsnSize + s.MemWords()*WordSize
	c.valid = true
}

// Executor is a reusable TCPU: an execution environment plus a pre-allocated
// decoded-instruction cache. Unlike the one-shot Exec convention, an Executor
// amortizes section validation and instruction decoding across hops and
// allocates nothing on the execute path, which is what lets a simulated
// switch forward TPP traffic at line rate.
//
// An Executor is not safe for concurrent use; give each switch (or worker)
// its own.
type Executor struct {
	env Env
	ctx execContext
	// noFuse turns the PUSH-run superinstruction off. Semantics are
	// identical either way; only fusion_test.go sets it, to use the plain
	// dispatch loop as the reference.
	noFuse bool
}

// NewExecutor returns an Executor bound to env.
func NewExecutor(env Env) *Executor { return &Executor{env: env} }

// Env returns the executor's environment for in-place adjustment (e.g.
// repointing Mem between packets). Mutating it does not invalidate the
// instruction cache.
func (e *Executor) Env() *Env { return &e.env }

// Exec runs one hop of the TPP section in place, exactly like the package
// level Exec, but against the executor's environment and without allocating.
func (e *Executor) Exec(s Section) Result {
	if !e.ctx.match(s) {
		if err := s.Validate(); err != nil {
			return Result{Halted: true, Reason: HaltBadSection}
		}
		e.ctx.fill(s)
	}
	return e.run(s)
}

// effOff maps an instruction operand to an absolute packet-memory word.
func effOff(op uint8, mode AddrMode, hop, perHop, memWords int) (int, bool) {
	w := int(op)
	if mode == AddrHop {
		w = hop*perHop + w
	}
	return w, w < memWords
}

// run is the TCPU interpreter proper (§3.2-3.3 semantics; see Exec for the
// execution model). The section has been validated and decoded into e.ctx.
func (e *Executor) run(s Section) Result {
	var res Result
	mode := s.Mode()
	memWords := s.MemWords()
	hop := s.HopOrSP() // hop number (hop mode) or stack pointer (stack mode)
	perHop := s.PerHopWords()
	env := &e.env

loop:
	for i := 0; i < e.ctx.n; i++ {
		in := e.ctx.insns[i]
		switch in.Op {
		case OpNOP:
			res.Executed++

		case OpHALT:
			res.Executed++
			res.Halted = true
			res.Reason = HaltInstruction
			break loop

		case OpLOAD:
			w, inRange := effOff(in.A, mode, hop, perHop, memWords)
			v, ok := env.Mem.Read(in.Addr)
			if !ok || !inRange {
				res.Skipped++
				continue
			}
			s.SetWord(w, v)
			res.Executed++

		case OpLOADI:
			src, srcOK := effOff(in.B, mode, hop, perHop, memWords)
			dst, dstOK := effOff(in.A, mode, hop, perHop, memWords)
			if !srcOK || !dstOK {
				res.Skipped++
				continue
			}
			ind := mem.Addr(s.Word(src) & 0xFFFF)
			v, ok := env.Mem.Read(ind)
			if !ok {
				res.Skipped++
				continue
			}
			s.SetWord(dst, v)
			res.Executed++

		case OpSTORE:
			w, inRange := effOff(in.A, mode, hop, perHop, memWords)
			if !inRange || !env.writeOK(in.Addr) {
				res.Skipped++
				continue
			}
			if !env.Mem.Write(in.Addr, s.Word(w)) {
				res.Skipped++
				continue
			}
			res.Executed++

		case OpPUSH:
			// A fused run executes every PUSH of the superinstruction in one
			// tight loop — same per-instruction semantics (range halt, skip
			// on absent memory, SP advance), one dispatch. The stat-copy
			// programs of §2 are all-PUSH, so they interpret in a single
			// case.
			if n := int(e.ctx.pushRun[i]); n > 1 && !e.noFuse {
				// The bulk copy hoists what the per-instruction path pays per
				// PUSH: the packet-memory region is sliced once and words are
				// written at direct offsets instead of re-deriving the region
				// from the header on every store.
				run := e.ctx.insns[i : i+n]
				pm := s.Memory()
				if mode == AddrStack {
					for k := range run {
						if hop >= memWords {
							res.Halted = true
							res.Reason = HaltMemoryExhausted
							break loop
						}
						if v, ok := env.Mem.Read(run[k].Addr); ok {
							binary.BigEndian.PutUint32(pm[hop*WordSize:], v)
							hop++
							res.Executed++
						} else {
							res.Skipped++
						}
					}
				} else {
					base := hop * perHop
					for k := range run {
						w := base + int(run[k].A)
						if w >= memWords {
							res.Halted = true
							res.Reason = HaltMemoryExhausted
							break loop
						}
						if v, ok := env.Mem.Read(run[k].Addr); ok {
							binary.BigEndian.PutUint32(pm[w*WordSize:], v)
							res.Executed++
						} else {
							res.Skipped++
						}
					}
				}
				i += n - 1
				continue
			}
			var w int
			var inRange bool
			if mode == AddrStack {
				w, inRange = hop, hop < memWords
			} else {
				w, inRange = effOff(in.A, mode, hop, perHop, memWords)
			}
			if !inRange {
				res.Halted = true
				res.Reason = HaltMemoryExhausted
				break loop
			}
			v, ok := env.Mem.Read(in.Addr)
			if !ok {
				res.Skipped++
				continue
			}
			s.SetWord(w, v)
			if mode == AddrStack {
				hop++
			}
			res.Executed++

		case OpPOP:
			var w int
			var inRange bool
			if mode == AddrStack {
				w, inRange = hop-1, hop > 0
			} else {
				w, inRange = effOff(in.A, mode, hop, perHop, memWords)
			}
			if !inRange {
				res.Halted = true
				res.Reason = HaltMemoryExhausted
				break loop
			}
			if !env.writeOK(in.Addr) || !env.Mem.Write(in.Addr, s.Word(w)) {
				res.Skipped++
				continue
			}
			if mode == AddrStack {
				hop--
			}
			res.Executed++

		case OpCSTORE:
			// CSTORE dst, old(A), new(B): §3.3.3 pseudo-code, verbatim.
			oldW, okA := effOff(in.A, mode, hop, perHop, memWords)
			newW, okB := effOff(in.B, mode, hop, perHop, memWords)
			if !okA || !okB {
				res.Skipped++
				res.Halted = true
				res.Reason = HaltCStoreFailed
				break loop
			}
			cur, ok := env.Mem.Read(in.Addr)
			if !ok {
				res.Skipped++
				res.Halted = true
				res.Reason = HaltCStoreFailed
				break loop
			}
			succeeded := false
			if cur == s.Word(oldW) && env.writeOK(in.Addr) {
				if env.Mem.Write(in.Addr, s.Word(newW)) {
					cur = s.Word(newW)
					succeeded = true
				}
			}
			// "value at Packet:hop[Pre] = value at X" — always.
			s.SetWord(oldW, cur)
			res.Executed++
			if !succeeded {
				res.Halted = true
				res.Reason = HaltCStoreFailed
				break loop
			}

		case OpCEXEC:
			// Halt unless (switch[Addr] & mask) == expected.
			valW, okA := effOff(in.A, mode, hop, perHop, memWords)
			if !okA {
				res.Skipped++
				res.Halted = true
				res.Reason = HaltCExecFailed
				break loop
			}
			mask := ^uint32(0)
			if in.B != in.A {
				if mw, okB := effOff(in.B, mode, hop, perHop, memWords); okB {
					mask = s.Word(mw)
				}
			}
			sw, ok := env.Mem.Read(in.Addr)
			if !ok || sw&mask != s.Word(valW) {
				res.Executed++
				res.Halted = true
				res.Reason = HaltCExecFailed
				break loop
			}
			res.Executed++

		default:
			// Undefined opcode: fail gracefully, skip.
			res.Skipped++
		}
	}

	if mode == AddrHop {
		hop = s.HopOrSP() + 1 // one hop consumed, regardless of halts
	}
	s.SetHopOrSP(hop)
	return res
}
