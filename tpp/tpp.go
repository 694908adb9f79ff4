// Package tpp is the public API for tiny packet programs: the wire format,
// instruction set, program construction and execution engine of "Millions of
// Little Minions: Using Packets for Low Latency Network Programming and
// Visibility" (SIGCOMM 2014).
//
// A TPP is a ≤5-instruction program embedded in a packet header that
// switches execute in the dataplane against a memory-mapped view of their
// state. The package offers two equivalent ways to construct one.
//
// The typed Builder composes programs from exported address constants, with
// no string parsing anywhere near a hot path:
//
//	prog, err := tpp.NewProgram().
//	        Push(tpp.SwitchID).
//	        Push(tpp.QueueOccupancy).
//	        Build()
//	section, err := prog.Encode()
//
// The assembler accepts the paper's pseudo-assembly verbatim and produces
// byte-identical sections for equivalent programs; Disassemble renders any
// program back to text that reassembles to the same bytes:
//
//	prog, err := tpp.Assemble(`
//	    PUSH [Switch:SwitchID]
//	    PUSH [Queue:QueueOccupancy]
//	`)
//
// Execution is hop by hop, in place, against any SwitchMemory. One-shot:
//
//	tpp.Exec(section, &tpp.Env{Mem: mySwitchView})
//
// Hot paths — a switch forwarding instrumented traffic — hold a reusable
// Executor instead, which caches the decoded instructions and allocates
// nothing per executed hop:
//
//	ex := tpp.NewExecutor(tpp.Env{Mem: mySwitchView})
//	res := ex.Exec(section) // 0 allocs/op once cached
//
// The types here alias the implementation in internal/*; see package tppnet
// for standing up simulated TPP-capable networks and package testbed for the
// paper's experiment runners.
package tpp

import (
	"minions/internal/asm"
	"minions/internal/core"
	"minions/internal/mem"
)

// Wire-format types.
type (
	// Program is a decoded/builder-side TPP.
	Program = core.Program
	// Section is a raw TPP section manipulated in place.
	Section = core.Section
	// Instruction is one decoded instruction word.
	Instruction = core.Instruction
	// Opcode identifies a TPP instruction.
	Opcode = core.Opcode
	// AddrMode selects stack or hop packet-memory addressing.
	AddrMode = core.AddrMode
	// Flags is the TPP header flag byte.
	Flags = core.Flags
	// HopView is one hop's slice of collected statistics.
	HopView = core.HopView
	// Addr is a 16-bit switch memory address.
	Addr = mem.Addr
	// SwitchMemory is the execution-time view of switch state.
	SwitchMemory = core.SwitchMemory
	// Env is the per-hop execution environment.
	Env = core.Env
	// Result summarizes one hop's execution.
	Result = core.Result
	// Executor is a reusable TCPU: it caches decoded instructions and
	// allocates nothing per executed hop.
	Executor = core.Executor
	// HaltReason says why execution stopped early.
	HaltReason = core.HaltReason
	// MapMemory is a map-backed SwitchMemory for tests and demos.
	MapMemory = core.MapMemory
	// Frame is a decoded Ethernet frame from the Figure 7a parse graph.
	Frame = core.Frame
	// MAC is an Ethernet address.
	MAC = core.MAC
)

// Instruction opcodes (Table 1 of the paper).
const (
	OpNOP    = core.OpNOP
	OpLOAD   = core.OpLOAD
	OpSTORE  = core.OpSTORE
	OpPUSH   = core.OpPUSH
	OpPOP    = core.OpPOP
	OpCSTORE = core.OpCSTORE
	OpCEXEC  = core.OpCEXEC
	OpHALT   = core.OpHALT
	OpLOADI  = core.OpLOADI
)

// Addressing modes and header flags.
const (
	AddrStack      = core.AddrStack
	AddrHop        = core.AddrHop
	FlagReflect    = core.FlagReflect
	FlagDropNotify = core.FlagDropNotify
	FlagEchoed     = core.FlagEchoed
)

// Wire-format constants.
const (
	Version      = core.Version
	HeaderLen    = core.HeaderLen
	InsnSize     = core.InsnSize
	WordSize     = core.WordSize
	MaxInsns     = core.MaxInsns
	EtherTypeTPP = core.EtherTypeTPP
	UDPPortTPP   = core.UDPPortTPP
)

// Assemble parses the paper's pseudo-assembly into a Program.
func Assemble(src string) (*Program, error) { return asm.Assemble(src) }

// MustAssemble is Assemble for programs known valid at compile time.
func MustAssemble(src string) *Program { return asm.MustAssemble(src) }

// Disassemble renders a Program back to assembler text.
func Disassemble(p *Program) string { return asm.Disassemble(p) }

// Decode parses and checksum-verifies a TPP section.
func Decode(b []byte) (*Program, error) { return core.Decode(b) }

// Exec runs one hop of a TPP in place against env. It re-validates and
// re-decodes the section every call; hot paths should hold a NewExecutor.
func Exec(s Section, env *Env) Result { return core.Exec(s, env) }

// NewExecutor returns a reusable TCPU bound to env: decoded instructions
// are cached across hops and the execute path performs no allocation.
func NewExecutor(env Env) *Executor { return core.NewExecutor(env) }

// ResolveAddr maps a mnemonic like "Queue:QueueOccupancy" to its address.
func ResolveAddr(name string) (Addr, error) { return mem.Resolve(name) }

// AddrMnemonic names an address if it has a canonical mnemonic.
func AddrMnemonic(a Addr) (string, bool) { return mem.Mnemonic(a) }

// ParseFrame decodes an Ethernet frame along the Figure 7a parse graph.
func ParseFrame(b []byte) (Frame, error) { return core.ParseFrame(b) }

// BuildTransparent assembles an Ethernet(0x6666)|TPP|payload frame.
func BuildTransparent(dst, src MAC, s Section, payload []byte) []byte {
	return core.BuildTransparent(dst, src, s, payload)
}

// BuildStandalone assembles an Ethernet|IPv4|UDP(0x6666)|TPP probe frame.
func BuildStandalone(dst, src MAC, srcIP, dstIP [4]byte, srcPort uint16, s Section) []byte {
	return core.BuildStandalone(dst, src, srcIP, dstIP, srcPort, s)
}
