package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"minions/internal/mem"
)

// TestPushFusionEquivalence drives random programs (the generator emits
// plenty of consecutive-PUSH runs) through a fused and an unfused executor:
// results, packet memory, stack pointers and switch memory must agree hop
// for hop — the superinstruction is a dispatch optimization, never a
// semantic one.
func TestPushFusionEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 800; trial++ {
		p := randomProgram(rng)
		s1, err := p.Encode()
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		s2 := s1.Clone()
		m1, m2 := randomEnv(rng)
		fused := NewExecutor(Env{Mem: m1})
		plain := NewExecutor(Env{Mem: m2})
		plain.noFuse = true
		for hop := 0; hop < 3; hop++ {
			r1 := fused.Exec(s1)
			r2 := plain.Exec(s2)
			if r1 != r2 {
				t.Fatalf("trial %d hop %d: fused=%+v unfused=%+v\nprogram: %v", trial, hop, r1, r2, p.Insns)
			}
			if !bytes.Equal(s1, s2) {
				t.Fatalf("trial %d hop %d: sections diverged\nprogram: %v", trial, hop, p.Insns)
			}
			for k := range m1 {
				if m1[k] != m2[k] {
					t.Fatalf("trial %d hop %d: switch mem diverged at %v", trial, hop, k)
				}
			}
		}
	}
}

// TestPushFusionStackExhaustion pins the halt point: a fused run must stop
// with HaltMemoryExhausted at exactly the PUSH that overruns packet memory,
// leaving the same partial stack as the unfused interpreter.
func TestPushFusionStackExhaustion(t *testing.T) {
	p := &Program{
		Mode:     AddrStack,
		MemWords: 2, // room for two of the four pushes
		Insns: []Instruction{
			{Op: OpPUSH, Addr: mem.SwSwitchID},
			{Op: OpPUSH, Addr: mem.SwClockLo},
			{Op: OpPUSH, Addr: mem.SwSwitchID},
			{Op: OpPUSH, Addr: mem.SwClockLo},
		},
	}
	s, err := p.Encode()
	if err != nil {
		t.Fatal(err)
	}
	m := MapMemory{mem.SwSwitchID: 11, mem.SwClockLo: 22}
	ex := NewExecutor(Env{Mem: m})
	r := ex.Exec(s)
	if !r.Halted || r.Reason != HaltMemoryExhausted || r.Executed != 2 {
		t.Fatalf("fused exhaustion: %+v", r)
	}
	if s.Word(0) != 11 || s.Word(1) != 22 || s.HopOrSP() != 2 {
		t.Fatalf("partial stack wrong: %d %d sp=%d", s.Word(0), s.Word(1), s.HopOrSP())
	}
}

// TestPushFusionSkipsAbsent: absent addresses inside a fused run are skipped
// without advancing the stack pointer, like the per-instruction path.
func TestPushFusionSkipsAbsent(t *testing.T) {
	p := &Program{
		Mode:     AddrStack,
		MemWords: 4,
		Insns: []Instruction{
			{Op: OpPUSH, Addr: mem.SwSwitchID},
			{Op: OpPUSH, Addr: 0x7777}, // unmapped
			{Op: OpPUSH, Addr: mem.SwClockLo},
		},
	}
	s, err := p.Encode()
	if err != nil {
		t.Fatal(err)
	}
	ex := NewExecutor(Env{Mem: MapMemory{mem.SwSwitchID: 5, mem.SwClockLo: 9}})
	r := ex.Exec(s)
	if r.Executed != 2 || r.Skipped != 1 || r.Halted {
		t.Fatalf("skip run: %+v", r)
	}
	if s.Word(0) != 5 || s.Word(1) != 9 || s.HopOrSP() != 2 {
		t.Fatalf("stack after skip: %d %d sp=%d", s.Word(0), s.Word(1), s.HopOrSP())
	}
}

// pushRunSection builds the paper's flagship shape — a run of n PUSH
// statistics — in the given mode.
func pushRunSection(tb testing.TB, n int, mode AddrMode) (Section, MapMemory) {
	tb.Helper()
	addrs := []mem.Addr{
		mem.SwSwitchID,
		mem.DynOutQueueBase + mem.QueueOccPackets,
		mem.DynPacketBase + mem.PktOutputPort,
		mem.SwClockLo,
		mem.LinkAddr(1, mem.LinkTXBytes),
	}
	p := &Program{Mode: mode, MemWords: 3 * n}
	if mode == AddrHop {
		p.PerHopWords = n
	}
	for i := 0; i < n; i++ {
		in := Instruction{Op: OpPUSH, Addr: addrs[i%len(addrs)]}
		if mode == AddrHop {
			in.A = uint8(i)
		}
		p.Insns = append(p.Insns, in)
	}
	s, err := p.Encode()
	if err != nil {
		tb.Fatal(err)
	}
	m := MapMemory{}
	for i, a := range addrs {
		m[a] = uint32(i + 1)
	}
	return s, m
}

// BenchmarkExecutorPushRun measures the fused superinstruction against the
// per-instruction interpreter over PUSH runs of 2..5 statistics — the §2
// collection programs' exact shape. The delta is the dispatch-and-offset
// tax fusion removes from every statistic after the first.
func BenchmarkExecutorPushRun(b *testing.B) {
	for _, n := range []int{2, 3, 5} {
		for _, fused := range []bool{true, false} {
			name := fmt.Sprintf("n=%d/unfused", n)
			if fused {
				name = fmt.Sprintf("n=%d/fused", n)
			}
			b.Run(name, func(b *testing.B) {
				s, mm := pushRunSection(b, n, AddrStack)
				rf := NewRegisterFile()
				for a, v := range mm {
					rf.Set(a, v)
				}
				ex := NewExecutor(Env{Mem: rf})
				ex.noFuse = !fused
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					s.SetHopOrSP(0)
					ex.Exec(s)
				}
			})
		}
	}
}
