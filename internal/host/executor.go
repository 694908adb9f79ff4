package host

import (
	"errors"
	"fmt"

	"minions/internal/core"
	"minions/internal/link"
	"minions/internal/mem"
	"minions/internal/sim"
	"minions/internal/stream"
)

// This file is the TPP Executor library of §4.4: reliable execution with
// retries, targeted execution at one switch, scatter-gather across many
// switches, and automatic splitting of TPPs whose statistics do not fit in
// one packet.

// ErrTimeout reports that every attempt of a reliable execution timed out.
var ErrTimeout = errors.New("host: TPP execution timed out")

// ExecOpts tunes the executor (§4.4 "Reliable execution": a fixed
// per-attempt timeout and an attempt budget).
type ExecOpts struct {
	Timeout     sim.Time // per-attempt echo timeout (default 10 ms)
	MaxAttempts int      // total attempts before giving up (default 3)
	// PathTag is stamped on probe packets so multipath switches steer them
	// onto a specific ECMP bucket (the §2.4 VLAN-tag trick).
	PathTag uint16
}

func (o ExecOpts) withDefaults() ExecOpts {
	if o.Timeout == 0 {
		o.Timeout = 10 * sim.Millisecond
	}
	if o.MaxAttempts == 0 {
		o.MaxAttempts = 3
	}
	return o
}

// ExecFailure is the executor's give-up record: a reliable execution that
// exhausted its retry budget. Hosts publish it on ExecFailures so
// applications and chaos harnesses observe control-plane degradation as a
// typed stream instead of scattered callbacks.
type ExecFailure struct {
	At       sim.Time
	App      uint16 // wire application handle of the failed TPP
	Dst      link.NodeID
	Attempts int
	Err      error
}

// ExecFailures is the host's stream of reliable executions that gave up
// after exhausting their retries.
func (h *Host) ExecFailures() *stream.Stream[ExecFailure] { return &h.execFailures }

// standaloneOverhead is Ethernet+IPv4+UDP framing around a standalone TPP.
const standaloneOverhead = 14 + 20 + 8

// pendingExec tracks one in-flight reliable execution.
type pendingExec struct {
	h        *Host
	port     uint16
	template core.Section
	dst      link.NodeID
	opts     ExecOpts
	appWire  uint16
	attempt  int
	gen      int
	done     bool
	cb       func(view core.Section, err error)
}

func (pe *pendingExec) complete(view core.Section) {
	if pe.done {
		return
	}
	pe.done = true
	delete(pe.h.pendingExec, pe.port)
	pe.cb(view, nil)
}

func (pe *pendingExec) fail(err error) {
	if pe.done {
		return
	}
	pe.done = true
	delete(pe.h.pendingExec, pe.port)
	// The give-up surface: chaos harnesses and resilient apps watch this
	// stream instead of wrapping every callback.
	if pe.h.execFailures.HasSubscribers() {
		pe.h.execFailures.Publish(ExecFailure{
			At: pe.h.eng.Now(), App: pe.appWire, Dst: pe.dst,
			Attempts: pe.attempt, Err: err,
		})
	}
	pe.cb(nil, err)
}

func (pe *pendingExec) sendAttempt() {
	pe.attempt++
	pe.gen++
	p := pe.h.NewPacket(pe.dst, pe.port, core.UDPPortTPP, link.ProtoUDP, standaloneOverhead+len(pe.template))
	tpp := p.SectionBuf(len(pe.template))
	copy(tpp, pe.template)
	p.TPP = tpp
	p.Standalone = true
	p.PathTag = pe.opts.PathTag
	pe.h.sendRaw(p)
	// The retry timer is a typed resident event carrying the attempt
	// generation, not a closure: reliable executions are the warm path of
	// every control loop (RCP rounds, CONGA probes), so their timers must
	// not allocate per attempt.
	pe.h.eng.ScheduleAfter(pe.opts.Timeout, pe, uint64(pe.gen))
}

// Handle implements sim.Handler: the per-attempt echo timeout. A stale
// generation means the attempt already completed or was superseded.
func (pe *pendingExec) Handle(gen uint64) {
	if pe.done || uint64(pe.gen) != gen {
		return
	}
	if pe.attempt >= pe.opts.MaxAttempts {
		pe.fail(fmt.Errorf("%w after %d attempts to %d", ErrTimeout, pe.attempt, pe.dst))
		return
	}
	// §4.4 "Reliable execution": retry idempotent TPPs. (Stores are made
	// idempotent by the caller conditioning on a read value.)
	pe.sendAttempt()
}

// ExecuteTPP sends prog as a standalone TPP to dst (a host, which echoes it,
// or a switch, which bounces it at the target — §4.4 targeted execution) and
// invokes cb with the fully executed view. It retries on loss.
//
// The view is backed by the probe packet, which is recycled when cb returns:
// it is valid only during the callback. Copy what you keep (HopViews,
// StackView and Words copy; Clone for the raw section).
func (h *Host) ExecuteTPP(app *App, prog *core.Program, dst link.NodeID, opts ExecOpts, cb func(core.Section, error)) error {
	if err := h.cp.ValidateProgram(app, prog); err != nil {
		return err
	}
	prog.AppID = app.Wire
	enc, err := prog.Encode()
	if err != nil {
		return err
	}
	pe := &pendingExec{
		h: h, port: h.ephemeralPort(),
		template: enc, dst: dst,
		opts:    opts.withDefaults(),
		appWire: app.Wire, cb: cb,
	}
	if h.pendingExec == nil {
		h.pendingExec = make(map[uint16]*pendingExec)
	}
	h.pendingExec[pe.port] = pe
	pe.sendAttempt()
	return nil
}

// TargetedProgram wraps prog so it takes effect only on the switch with the
// given ID: a CEXEC on [Switch:SwitchID] guards every subsequent instruction
// (§4.4 "This helper function wraps a TPP with a CEXEC instruction
// conditioned on the switch ID matching the specified value").
//
// The wrapped program runs in hop mode: word 0 of each hop slice holds the
// target switch ID. The guarded instructions' operands are shifted by one.
func TargetedProgram(prog *core.Program, switchID uint32, hops int) (*core.Program, error) {
	if len(prog.Insns) >= core.MaxInsns {
		return nil, fmt.Errorf("host: no room for the CEXEC guard (have %d instructions)", len(prog.Insns))
	}
	if prog.Mode != core.AddrHop {
		return nil, fmt.Errorf("host: targeted wrapping requires a hop-mode program")
	}
	out := &core.Program{
		Mode:        core.AddrHop,
		PerHopWords: prog.PerHopWords + 1,
		AppID:       prog.AppID,
		Flags:       prog.Flags,
	}
	out.Insns = append(out.Insns, core.Instruction{
		Op: core.OpCEXEC, A: 0, B: 0, Addr: mem.SwSwitchID,
	})
	for _, in := range prog.Insns {
		in.A++
		if in.Op == core.OpCSTORE || in.Op == core.OpLOADI || (in.Op == core.OpCEXEC && in.B != in.A-1) {
			in.B++
		} else if in.Op == core.OpCEXEC {
			in.B = in.A
		}
		out.Insns = append(out.Insns, in)
	}
	out.MemWords = out.PerHopWords * hops
	if out.MemWords > core.MaxMemWords {
		return nil, fmt.Errorf("host: targeted program memory %d words exceeds limit", out.MemWords)
	}
	for hop := 0; hop < hops; hop++ {
		slot := hop * out.PerHopWords
		for len(out.InitMem) < slot {
			out.InitMem = append(out.InitMem, 0)
		}
		out.InitMem = append(out.InitMem, switchID)
		for i := 0; i < prog.PerHopWords; i++ {
			idx := hop*prog.PerHopWords + i
			if idx < len(prog.InitMem) {
				out.InitMem = append(out.InitMem, prog.InitMem[idx])
			} else {
				out.InitMem = append(out.InitMem, 0)
			}
		}
	}
	return out, nil
}

// GatherResult is one switch's outcome in a scatter-gather.
type GatherResult struct {
	Target link.NodeID
	View   core.Section // nil on error
	Err    error
}

// ScatterGather executes prog on every listed switch concurrently and calls
// cb once with all results, masking individual failures with retries
// (§4.4 "Scatter gather").
func (h *Host) ScatterGather(app *App, prog *core.Program, switches []link.NodeID, opts ExecOpts, cb func([]GatherResult)) error {
	results := make([]GatherResult, len(switches))
	remaining := len(switches)
	if remaining == 0 {
		cb(nil)
		return nil
	}
	for i, swID := range switches {
		i, swID := i, swID
		clone := *prog
		err := h.ExecuteTPP(app, &clone, swID, opts, func(view core.Section, err error) {
			if view != nil {
				// Gather results outlive the probe packet backing the view.
				view = view.Clone()
			}
			results[i] = GatherResult{Target: swID, View: view, Err: err}
			remaining--
			if remaining == 0 {
				cb(results)
			}
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// SplitCollect builds the minimal set of hop-mode collection programs that
// together gather the given per-hop statistics over pathHops hops when one
// TPP's packet memory cannot hold them all (§4.4 "Large TPPs").
//
// Each program carries a full-size per-hop record but a memory window that
// only covers a contiguous hop range; the trick is the 8-bit hop counter:
// program k starts at hop -k*window (mod 256), so its memory addresses fall
// in range exactly while the packet traverses hops [k*window, (k+1)*window).
// Out-of-range hops skip gracefully per §3.3.
func SplitCollect(addrs []mem.Addr, pathHops, maxWords int) ([]*core.Program, error) {
	if len(addrs) == 0 || len(addrs) > core.MaxInsns {
		return nil, fmt.Errorf("host: SplitCollect supports 1..%d statistics, got %d", core.MaxInsns, len(addrs))
	}
	if maxWords <= 0 || maxWords > core.MaxMemWords {
		maxWords = core.MaxMemWords
	}
	per := len(addrs)
	window := maxWords / per
	if window == 0 {
		return nil, fmt.Errorf("host: %d words per hop exceed the %d-word budget", per, maxWords)
	}
	if window > pathHops {
		window = pathHops
	}
	var progs []*core.Program
	for start := 0; start < pathHops; start += window {
		hops := window
		if start+hops > pathHops {
			hops = pathHops - start
		}
		p := &core.Program{
			Mode:        core.AddrHop,
			PerHopWords: per,
			MemWords:    hops * per,
			StartHop:    (256 - start) & 0xFF,
		}
		for i, a := range addrs {
			p.Insns = append(p.Insns, core.Instruction{Op: core.OpLOAD, A: uint8(i), Addr: a})
		}
		progs = append(progs, p)
	}
	return progs, nil
}

// MergeCollected reassembles the per-hop records from the executed views of
// a SplitCollect program set. views[i] must be the executed section of
// progs[i]; nil views leave gaps (all-zero records).
func MergeCollected(progs []*core.Program, views []core.Section, pathHops int) [][]uint32 {
	if len(progs) == 0 {
		return nil
	}
	per := progs[0].PerHopWords
	out := make([][]uint32, pathHops)
	for i := range out {
		out[i] = make([]uint32, per)
	}
	for k, v := range views {
		if v == nil || k >= len(progs) {
			continue
		}
		start := (256 - progs[k].StartHop) & 0xFF
		hops := progs[k].MemWords / per
		for h := 0; h < hops && start+h < pathHops; h++ {
			for i := 0; i < per; i++ {
				out[start+h][i] = v.Word(h*per + i)
			}
		}
	}
	return out
}
