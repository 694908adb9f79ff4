package core

import (
	"bytes"
	"math/rand"
	"testing"

	"minions/internal/mem"
)

// randomProgram builds a structurally valid pseudo-random program whose
// instructions draw from the full opcode set.
func randomProgram(rng *rand.Rand) *Program {
	mode := AddrStack
	if rng.Intn(2) == 0 {
		mode = AddrHop
	}
	perHop := 0
	memWords := 1 + rng.Intn(20)
	if mode == AddrHop {
		perHop = 1 + rng.Intn(4)
		memWords = perHop * (1 + rng.Intn(5))
	}
	limit := memWords
	if mode == AddrHop {
		limit = perHop
	}
	addrs := []mem.Addr{
		mem.SwSwitchID, mem.SwClockLo,
		mem.DynOutQueueBase + mem.QueueOccPackets,
		mem.DynPacketBase + mem.PktOutputPort,
		mem.LinkAddr(1, mem.LinkTXBytes),
		0x7777, // unmapped: exercises graceful failure
	}
	ops := []Opcode{OpNOP, OpLOAD, OpSTORE, OpPUSH, OpPOP, OpCSTORE, OpCEXEC, OpHALT, OpLOADI}
	p := &Program{Mode: mode, PerHopWords: perHop, MemWords: memWords}
	n := 1 + rng.Intn(MaxInsns)
	for i := 0; i < n; i++ {
		in := Instruction{
			Op:   ops[rng.Intn(len(ops))],
			A:    uint8(rng.Intn(limit)),
			B:    uint8(rng.Intn(limit)),
			Addr: addrs[rng.Intn(len(addrs))],
		}
		p.Insns = append(p.Insns, in)
	}
	for i := 0; i < rng.Intn(memWords+1); i++ {
		p.InitMem = append(p.InitMem, rng.Uint32())
	}
	return p
}

func randomEnv(rng *rand.Rand) (MapMemory, MapMemory) {
	a := MapMemory{
		mem.SwSwitchID: rng.Uint32(),
		mem.SwClockLo:  rng.Uint32(),
		mem.DynOutQueueBase + mem.QueueOccPackets: rng.Uint32() % 64,
		mem.DynPacketBase + mem.PktOutputPort:     rng.Uint32() % 4,
		mem.LinkAddr(1, mem.LinkTXBytes):          rng.Uint32(),
	}
	b := make(MapMemory, len(a))
	for k, v := range a {
		b[k] = v
	}
	return a, b
}

// TestExecutorMatchesExec drives random programs through both the one-shot
// Exec and a reused Executor: results, packet memory and switch memory must
// agree hop for hop.
func TestExecutorMatchesExec(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 500; trial++ {
		p := randomProgram(rng)
		s1, err := p.Encode()
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		s2 := s1.Clone()
		m1, m2 := randomEnv(rng)
		ex := NewExecutor(Env{Mem: m2})
		for hop := 0; hop < 3; hop++ {
			r1 := Exec(s1, &Env{Mem: m1})
			r2 := ex.Exec(s2)
			if r1 != r2 {
				t.Fatalf("trial %d hop %d: Exec=%+v Executor=%+v\nprogram: %v", trial, hop, r1, r2, p.Insns)
			}
			if !bytes.Equal(s1, s2) {
				t.Fatalf("trial %d hop %d: sections diverged\nprogram: %v", trial, hop, p.Insns)
			}
			for k := range m1 {
				if m1[k] != m2[k] {
					t.Fatalf("trial %d hop %d: switch mem diverged at %v: %d != %d", trial, hop, k, m1[k], m2[k])
				}
			}
		}
	}
}

// TestExecutorCacheInvalidation: swapping programs under one Executor must
// re-decode, not execute stale instructions.
func TestExecutorCacheInvalidation(t *testing.T) {
	push := &Program{
		Insns:    []Instruction{{Op: OpPUSH, Addr: mem.SwSwitchID}},
		Mode:     AddrStack,
		MemWords: 5,
	}
	nop := &Program{
		Insns:    []Instruction{{Op: OpNOP}},
		Mode:     AddrStack,
		MemWords: 5,
	}
	s1, _ := push.Encode()
	s2, _ := nop.Encode()
	ex := NewExecutor(Env{Mem: MapMemory{mem.SwSwitchID: 99}})
	if r := ex.Exec(s1); r.Executed != 1 || s1.Word(0) != 99 {
		t.Fatalf("push: %+v word0=%d", r, s1.Word(0))
	}
	if r := ex.Exec(s2); r.Executed != 1 || s2.HopOrSP() != 0 {
		t.Fatalf("nop after cache swap: %+v sp=%d", r, s2.HopOrSP())
	}
	if r := ex.Exec(s1); r.Executed != 1 || s1.HopOrSP() != 2 {
		t.Fatalf("push again: %+v sp=%d", r, s1.HopOrSP())
	}
}

// TestExecutorRejectsBadSection: a corrupt header fails exactly like Exec.
func TestExecutorRejectsBadSection(t *testing.T) {
	ex := NewExecutor(Env{Mem: MapMemory{}})
	s := Section{0x00} // wrong version, too short
	if r := ex.Exec(s); !r.Halted || r.Reason != HaltBadSection {
		t.Fatalf("got %+v", r)
	}
	// A valid program whose buffer was truncated below its declared memory.
	p := &Program{Insns: []Instruction{{Op: OpNOP}}, Mode: AddrStack, MemWords: 8}
	full, _ := p.Encode()
	if r := ex.Exec(full); r.Halted {
		t.Fatalf("full section: %+v", r)
	}
	trunc := full[:len(full)-4]
	if r := ex.Exec(trunc); !r.Halted || r.Reason != HaltBadSection {
		t.Fatalf("truncated section executed: %+v", r)
	}
}

// TestExecutorZeroAllocs is the acceptance bound: Executor.Exec on a cached
// section allocates nothing.
func TestExecutorZeroAllocs(t *testing.T) {
	p := &Program{
		Insns: []Instruction{
			{Op: OpPUSH, Addr: mem.SwSwitchID},
			{Op: OpPUSH, Addr: mem.DynOutQueueBase + mem.QueueOccPackets},
			{Op: OpLOAD, A: 2, Addr: mem.SwClockLo},
		},
		Mode:     AddrStack,
		MemWords: 16,
	}
	s, err := p.Encode()
	if err != nil {
		t.Fatal(err)
	}
	m := MapMemory{
		mem.SwSwitchID: 7,
		mem.SwClockLo:  1234,
		mem.DynOutQueueBase + mem.QueueOccPackets: 3,
	}
	ex := NewExecutor(Env{Mem: m})
	ex.Exec(s) // warm the cache
	if allocs := testing.AllocsPerRun(100, func() {
		s.SetHopOrSP(0)
		ex.Exec(s)
	}); allocs != 0 {
		t.Errorf("Executor.Exec allocates %.1f objects/op, want 0", allocs)
	}
}

// BenchmarkExec is the one-shot path: per-hop validate + decode.
func BenchmarkExec(b *testing.B) {
	s, m := benchSection(b)
	env := Env{Mem: m}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.SetHopOrSP(0)
		Exec(s, &env)
	}
}

// BenchmarkExecutorExec is the cached path a switch runs per forwarded
// packet: 0 allocs/op.
func BenchmarkExecutorExec(b *testing.B) {
	s, m := benchSection(b)
	ex := NewExecutor(Env{Mem: m})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.SetHopOrSP(0)
		ex.Exec(s)
	}
}

func benchSection(b *testing.B) (Section, MapMemory) {
	b.Helper()
	p := &Program{
		Insns: []Instruction{
			{Op: OpPUSH, Addr: mem.SwSwitchID},
			{Op: OpPUSH, Addr: mem.DynPacketBase + mem.PktOutputPort},
			{Op: OpPUSH, Addr: mem.DynOutQueueBase + mem.QueueOccPackets},
		},
		Mode:     AddrStack,
		MemWords: 15,
	}
	s, err := p.Encode()
	if err != nil {
		b.Fatal(err)
	}
	return s, MapMemory{
		mem.SwSwitchID:                            1,
		mem.DynPacketBase + mem.PktOutputPort:     2,
		mem.DynOutQueueBase + mem.QueueOccPackets: 3,
	}
}
