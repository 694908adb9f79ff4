// Package workload is a scriptable, allocation-free datacenter workload
// engine for the minions simulator — load generation as a research
// instrument in the MoonGen tradition rather than a hard-coded traffic
// pattern.
//
// A workload.Spec is a seedable, composable description of traffic: a list
// of Groups, each binding one generator kind to a subset of hosts —
//
//   - Messages: Poisson message arrivals whose sizes draw from a SizeDist
//     (empirical web-search / data-mining CDFs, lognormal or Pareto heavy
//     tails, or any user-supplied CDF), split across weighted Classes for
//     elephant/mice mixes. A class sends back-to-back bursts or paces
//     through a precise per-source token bucket.
//   - Flows: long-lived CBR UDP flows between uniform-random pairs (the
//     scale harness's default workload).
//   - Incast: partition-aggregate request/response rounds — aggregators
//     fan requests to a random worker subset each period and the workers'
//     synchronized responses collide on the aggregator's edge link.
//   - OnOff: sources alternating heavy-tailed ON bursts at line-ish rate
//     with idle OFF periods.
//
// Spec.Attach compiles the description onto live hosts into resident
// sim.Handler generators: all tables (inverse-CDF quantiles, class alias
// tables, worker permutations, pending rings) are pre-built at attach time,
// so the warmed steady state sends, samples, paces and re-arms with zero
// allocations per packet — the same discipline the forwarding path holds.
//
// Determinism: every source owns a private rand.Rand seeded from
// Spec.Seed, the group's seed offset and the source's stable host index —
// never from an engine RNG — and schedules only on its own host's shard
// engine. Identical (topology, Spec) pairs therefore replay byte-identically
// across shard counts, sync modes and schedulers; Runner.Fingerprint
// summarizes a run for exactly that comparison.
package workload

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"sync/atomic"

	"minions/internal/host"
	"minions/internal/link"
	"minions/internal/sim"
	"minions/internal/transport"
)

// unbounded is the stop time meaning "never".
const unbounded = sim.Time(math.MaxInt64)

// Spec is a complete, seedable workload description. The zero value is an
// empty workload; fill Seed and Groups and call Attach.
type Spec struct {
	// Seed is the root of every RNG stream the compiled generators use.
	// Identical Specs attached to identical topologies replay
	// byte-identically regardless of shard count, sync mode or scheduler.
	Seed int64
	// Groups compose independent generators; each compiles onto its own
	// host subset with its own derived seed.
	Groups []Group
}

// Group binds exactly one generator kind (Messages, Flows, Incast or OnOff)
// to a subset of the attached hosts.
type Group struct {
	// Name labels the group in stats and fingerprints (default "g<i>").
	Name string
	// Hosts selects source hosts by index into the Attach slice; nil means
	// all hosts.
	Hosts []int
	// Start delays the group's first activity; Stop (when > 0) halts new
	// activity from that simulated time on. Stop == 0 means unbounded.
	Start, Stop sim.Time
	// SeedOffset separates this group's RNG streams from the Spec seed.
	// When 0, group i>0 derives a distinct default offset; group 0 uses
	// Spec.Seed directly (which is what keeps the canned specs on the RNG
	// streams the testbed goldens were captured under).
	SeedOffset int64
	// SportBase is the first source port the group's senders use (each
	// source/flow gets SportBase+index). 0 picks a per-kind default
	// (messages 10000, flows 20000, on/off 40000).
	SportBase int

	// Exactly one of the following must be non-nil.
	Messages *MessageSpec
	Flows    *FlowSpec
	Incast   *IncastSpec
	OnOff    *OnOffSpec
}

// MessageSpec generates Poisson message arrivals per source host. Each
// arrival picks a uniform-random destination (excluding the source), picks a
// weighted Class, draws a size, and transmits it as UDP packets — as a
// back-to-back burst (RateBps == 0) or paced by a token bucket.
type MessageSpec struct {
	// Classes partition arrivals into an elephant/mice-style mix; at least
	// one is required.
	Classes []Class
	// Load sets the per-source arrival rate as a fraction of the source
	// NIC's line rate carried in mean-sized messages:
	// arrivals/sec = Load * nic_bps / (mean_bytes*8).
	Load float64
	// ArrivalsPerSec, when > 0, sets the per-source arrival rate directly
	// and overrides Load.
	ArrivalsPerSec float64
	// PktSize is the maximum payload bytes per packet (default 1440);
	// transport framing (54 B) is added per packet on the wire.
	PktSize int
	// DstPort is the UDP port sinks listen on (default 9000).
	DstPort uint16
	// Dst selects destination hosts by Attach index; nil means all hosts.
	Dst []int
	// PendingCap bounds each source's queue of paced messages awaiting
	// their token bucket (default 1024). Overflowing messages are dropped
	// and counted in GroupStats.Overflow.
	PendingCap int
}

// Class is one weighted component of a MessageSpec mix.
type Class struct {
	// Name labels the class in docs/tables; unused mechanically.
	Name string
	// Weight is the relative arrival probability (default 1).
	Weight float64
	// Sizes draws the message size in bytes.
	Sizes SizeDist
	// RateBps == 0 sends each message as a back-to-back packet burst;
	// > 0 paces the message through the source's token bucket at this
	// rate — the precise pacing a real sender's shaper would apply.
	RateBps int64
}

// FlowSpec generates long-lived CBR UDP flows between uniform-random host
// pairs — the "uniform random flows" workload.
type FlowSpec struct {
	// Flows is the number of flows (required).
	Flows int
	// RateBps is the CBR rate of each flow.
	RateBps int64
	// PktSize is the wire bytes per packet (default 1500).
	PktSize int
	// DstPort is the destination port (default 9100).
	DstPort uint16
	// MaxStart jitters each flow's start uniformly in [0, MaxStart)
	// (default 1 ms) so flows do not phase-lock.
	MaxStart sim.Time
}

// IncastSpec generates partition-aggregate traffic: each aggregator
// periodically sends a small request to FanIn uniform-random workers, and
// every worker immediately answers with ResponseBytes — the synchronized
// response burst that incast-collapses shallow switch buffers.
type IncastSpec struct {
	// Aggregators selects aggregator hosts by Attach index; nil means the
	// group's first source host.
	Aggregators []int
	// FanIn is how many distinct workers each round queries (required;
	// capped at the worker count).
	FanIn int
	// RequestBytes is the request payload (default 64).
	RequestBytes int
	// ResponseBytes is each worker's response payload (required).
	ResponseBytes int
	// Period is the round interval per aggregator (required).
	Period sim.Time
	// Jitter, when > 0, offsets each round uniformly in [0, Jitter).
	Jitter sim.Time
	// PktSize is the maximum payload bytes per packet (default 1440).
	PktSize int
	// Port is the request port; responses return to Port+1 (default 9200).
	Port uint16
}

// OnOffSpec generates ON/OFF bursty sources: each source alternates ON
// periods — CBR packets at RateBps toward one random destination — with
// silent OFF periods, both drawn from DurDists. Pareto dwell times yield
// the long-range-dependent aggregate burstiness of measured traffic.
type OnOffSpec struct {
	// RateBps is the in-burst send rate (required).
	RateBps int64
	// PktSize is the wire bytes per packet (default 1400).
	PktSize int
	// DstPort is the UDP port sinks listen on (default 9300).
	DstPort uint16
	// On and Off draw the dwell times (both required).
	On, Off DurDist
	// Dst selects destination hosts by Attach index; nil means all hosts.
	Dst []int
}

// Runner is a compiled, attached workload: the live sinks and flows plus
// per-group counters. All counters are atomic and commutative, so they are
// deterministic across shard counts.
type Runner struct {
	// Sinks are the receive-side counters, in creation order (destination
	// hosts of each group, group order).
	Sinks []*transport.Sink
	// UDPFlows are the long-lived flows of Flow groups.
	UDPFlows []*transport.UDPFlow

	groups  []*groupRun
	sources []halter
	nsrc    int

	// poolNeed accumulates, per packet pool, the worst-case in-flight
	// packets the compiled sources can put on the wire at once; Attach
	// reserves that many up front so even the first record-size burst of a
	// heavy-tailed spec allocates nothing.
	poolNeed map[*link.Pool]int
}

// maxReservePkts caps the per-source pool reservation: an unclamped
// distribution's 1 GB ceiling must not translate into a gigabyte of idle
// packets. Sources whose real bursts exceed the cap amortize the remainder
// through ordinary pool growth.
const maxReservePkts = 4096

// reservePool records a source's worst-case in-flight packet count against
// its host's pool (no-op for pool-less hosts).
func (r *Runner) reservePool(h *host.Host, pkts int) {
	if pkts <= 0 {
		return
	}
	if pkts > maxReservePkts {
		pkts = maxReservePkts
	}
	if pl := h.Pool(); pl != nil {
		if r.poolNeed == nil {
			r.poolNeed = make(map[*link.Pool]int)
		}
		r.poolNeed[pl] += pkts
	}
}

// halter is anything Stop can halt between run segments.
type halter interface{ halt() }

type groupRun struct {
	name, kind     string
	sources        int
	sinkLo, sinkHi int
	udpLo, udpHi   int

	msgs     atomic.Uint64 // messages / ON bursts / incast rounds started
	msgBytes atomic.Uint64 // offered application bytes
	pkts     atomic.Uint64 // packets transmitted by resident generators
	overflow atomic.Uint64 // paced messages dropped at a full pending ring
	reqs     atomic.Uint64 // incast requests sent
	resps    atomic.Uint64 // incast responses sent
}

// GroupStats is a point-in-time snapshot of one group's counters.
type GroupStats struct {
	Name, Kind string
	// Sources is the number of compiled resident generators (flows count
	// per flow).
	Sources int
	// Messages counts message arrivals (Messages), ON bursts (OnOff) or
	// rounds (Incast); Bytes the offered application bytes; Packets the
	// packets the group's generators put on the wire.
	Messages, Bytes, Packets uint64
	// Overflow counts paced messages dropped at a full pending ring.
	Overflow uint64
	// Requests/Responses count incast request and response messages.
	Requests, Responses uint64
	// RxPackets/RxBytes sum the group's sinks.
	RxPackets, RxBytes uint64
}

// Sources returns the total number of compiled generators.
func (r *Runner) Sources() int { return r.nsrc }

// Stop halts every generator and flow in the runner. Call it between run
// segments (never while the engine is advancing) — e.g. before a final
// drain so pending packets empty back into their pools and Run terminates.
func (r *Runner) Stop() {
	for _, s := range r.sources {
		s.halt()
	}
}

// Stats snapshots every group's counters, in Spec order.
func (r *Runner) Stats() []GroupStats {
	out := make([]GroupStats, len(r.groups))
	for i, g := range r.groups {
		gs := GroupStats{
			Name: g.name, Kind: g.kind, Sources: g.sources,
			Messages: g.msgs.Load(), Bytes: g.msgBytes.Load(),
			Packets: g.pkts.Load(), Overflow: g.overflow.Load(),
			Requests: g.reqs.Load(), Responses: g.resps.Load(),
		}
		for _, s := range r.Sinks[g.sinkLo:g.sinkHi] {
			gs.RxPackets += s.Packets
			gs.RxBytes += s.Bytes
		}
		for _, f := range r.UDPFlows[g.udpLo:g.udpHi] {
			gs.Packets += f.TxPkts
			gs.Bytes += f.TxBytes
		}
		out[i] = gs
	}
	return out
}

// Fingerprint renders the runner's counters as one deterministic line —
// byte-identical across shard counts, sync modes and schedulers for
// identical (topology, Spec) runs.
func (r *Runner) Fingerprint() string {
	var b strings.Builder
	for i, gs := range r.Stats() {
		if i > 0 {
			b.WriteString(" | ")
		}
		fmt.Fprintf(&b, "%s kind=%s src=%d msgs=%d bytes=%d pkts=%d ovf=%d req=%d resp=%d rx=%d/%d",
			gs.Name, gs.Kind, gs.Sources, gs.Messages, gs.Bytes, gs.Packets,
			gs.Overflow, gs.Requests, gs.Responses, gs.RxPackets, gs.RxBytes)
	}
	return b.String()
}

// Attach compiles the Spec onto live hosts (already wired into a topology)
// and arms every generator. The host slice order defines the stable indices
// Hosts/Dst/Aggregators refer to and the per-source seed streams —
// pass hosts in a deterministic order (topology constructors already do).
func (s Spec) Attach(hosts []*host.Host) (*Runner, error) {
	if len(hosts) == 0 {
		return nil, errors.New("workload: Attach needs at least one host")
	}
	if len(s.Groups) == 0 {
		return nil, errors.New("workload: Spec has no groups")
	}
	r := &Runner{}
	for gi := range s.Groups {
		g := &s.Groups[gi]
		if err := compileGroup(s, gi, g, hosts, r); err != nil {
			name := g.Name
			if name == "" {
				name = fmt.Sprintf("g%d", gi)
			}
			return nil, fmt.Errorf("workload: group %q: %w", name, err)
		}
	}
	for pl, n := range r.poolNeed {
		pl.Reserve(n)
	}
	return r, nil
}

// groupSeed derives the group's RNG seed root. Group 0 with no explicit
// offset uses Spec.Seed directly — the legacy-compatible stream.
func groupSeed(s Spec, gi int, g *Group) int64 {
	if g.SeedOffset != 0 {
		return s.Seed + g.SeedOffset
	}
	return s.Seed + int64(gi)*104729
}

func stopOf(g *Group) sim.Time {
	if g.Stop > 0 {
		return g.Stop
	}
	return unbounded
}

// resolve maps host indices (nil = all) to hosts, validating bounds. The
// returned index slice is always populated.
func resolve(hosts []*host.Host, idx []int) ([]*host.Host, []int, error) {
	if idx == nil {
		all := make([]int, len(hosts))
		for i := range hosts {
			all[i] = i
		}
		return hosts, all, nil
	}
	if len(idx) == 0 {
		return nil, nil, errors.New("empty host selection")
	}
	out := make([]*host.Host, len(idx))
	for k, i := range idx {
		if i < 0 || i >= len(hosts) {
			return nil, nil, fmt.Errorf("host index %d out of range [0,%d)", i, len(hosts))
		}
		out[k] = hosts[i]
	}
	return out, append([]int(nil), idx...), nil
}

func compileGroup(s Spec, gi int, g *Group, hosts []*host.Host, r *Runner) error {
	kinds := 0
	for _, set := range []bool{g.Messages != nil, g.Flows != nil, g.Incast != nil, g.OnOff != nil} {
		if set {
			kinds++
		}
	}
	if kinds != 1 {
		return fmt.Errorf("need exactly one of Messages/Flows/Incast/OnOff, have %d", kinds)
	}
	gr := &groupRun{name: g.Name}
	if gr.name == "" {
		gr.name = fmt.Sprintf("g%d", gi)
	}
	gr.sinkLo, gr.udpLo = len(r.Sinks), len(r.UDPFlows)
	seed := groupSeed(s, gi, g)
	var err error
	switch {
	case g.Messages != nil:
		gr.kind = "messages"
		err = compileMessages(g, gr, hosts, seed, r)
	case g.Flows != nil:
		gr.kind = "flows"
		err = compileFlows(g, gr, hosts, seed, r)
	case g.Incast != nil:
		gr.kind = "incast"
		err = compileIncast(g, gr, hosts, seed, r)
	default:
		gr.kind = "onoff"
		err = compileOnOff(g, gr, hosts, seed, r)
	}
	if err != nil {
		return err
	}
	gr.sinkHi, gr.udpHi = len(r.Sinks), len(r.UDPFlows)
	r.groups = append(r.groups, gr)
	return nil
}

func compileMessages(g *Group, gr *groupRun, hosts []*host.Host, seed int64, r *Runner) error {
	m := g.Messages
	if len(m.Classes) == 0 {
		return errors.New("Messages needs at least one Class")
	}
	pktSize := m.PktSize
	if pktSize == 0 {
		pktSize = 1440
	}
	if pktSize < 1 {
		return fmt.Errorf("PktSize %d < 1", pktSize)
	}
	dstPort := m.DstPort
	if dstPort == 0 {
		dstPort = 9000
	}
	pendCap := m.PendingCap
	if pendCap == 0 {
		pendCap = 1024
	}
	sportBase := g.SportBase
	if sportBase == 0 {
		sportBase = 10000
	}
	// Mixture mean (weights default to 1): what Load-based rates divide by.
	var wsum, msum float64
	classes := make([]msgClass, len(m.Classes))
	weights := make([]float64, len(m.Classes))
	paced := false
	for ci, c := range m.Classes {
		w := c.Weight
		if w == 0 {
			w = 1
		}
		if w < 0 {
			return fmt.Errorf("class %d: negative weight", ci)
		}
		if c.Sizes.Mean() <= 0 {
			return fmt.Errorf("class %d: Sizes is unset (build with Fixed/WebSearch/...)", ci)
		}
		weights[ci] = w
		wsum += w
		msum += w * c.Sizes.Mean()
		classes[ci] = msgClass{sizes: c.Sizes, rateBps: c.RateBps}
		if c.RateBps > 0 {
			paced = true
		}
	}
	mean := msum / wsum
	var pick aliasTable
	if len(classes) > 1 {
		pick = newAlias(weights)
	}
	// Worst-case in-flight packets per source: a burst class dumps a whole
	// max-size message on the wire at once; a paced class keeps at most a
	// bucket's worth plus the drain's next packet outstanding. Doubled for
	// back-to-back arrivals whose first burst has not fully drained.
	reserve := 0
	for _, c := range classes {
		var pkts int
		if c.rateBps == 0 {
			pkts = (c.sizes.MaxBytes() + pktSize - 1) / pktSize
		} else {
			pkts = bucketPkts + 2
		}
		if pkts > reserve {
			reserve = pkts
		}
	}
	reserve *= 2

	// Sinks on every destination candidate, before any sender arms.
	dsts, _, err := resolve(hosts, m.Dst)
	if err != nil {
		return fmt.Errorf("Dst: %w", err)
	}
	for _, h := range dsts {
		r.Sinks = append(r.Sinks, transport.NewSink(h, dstPort, link.ProtoUDP))
	}

	_, srcIdx, err := resolve(hosts, g.Hosts)
	if err != nil {
		return fmt.Errorf("Hosts: %w", err)
	}
	if len(dsts) == 1 {
		for _, i := range srcIdx {
			if hosts[i] == dsts[0] {
				return errors.New("sole destination is also a source")
			}
		}
	}
	member := make([]bool, len(hosts))
	for _, i := range srcIdx {
		member[i] = true
	}
	stopAt := stopOf(g)
	// Iterate in global host order so each source's seed stream is a
	// function of its stable topology index, not the subset ordering.
	for i, h := range hosts {
		if !member[i] {
			continue
		}
		rng := rand.New(rand.NewSource(seed + int64(i)*7919))
		perSec := m.ArrivalsPerSec
		if perSec <= 0 {
			nicBps := float64(h.NIC().RateBps())
			perSec = m.Load * nicBps / (mean * 8)
		}
		if perSec <= 0 {
			continue
		}
		src := &msgSource{
			eng: h.Engine(), src: h, rng: rng, g: gr,
			dsts: dsts, meanGap: float64(sim.Second) / perSec,
			pktSize: pktSize, sport: uint16(sportBase + i), dport: dstPort,
			stopAt:  stopAt,
			classes: classes, pick: pick,
		}
		if paced {
			src.drain = &msgDrain{s: src}
			src.bucket.burstBits = bucketPkts * int64(pktSize+transport.HeaderBytes) * 8
			src.pend.buf = make([]pendMsg, pendCap)
		}
		gr.sources++
		r.sources = append(r.sources, src)
		r.reservePool(h, reserve)
		if g.Start <= 0 {
			src.arm()
		} else {
			// arg 1 = "arm only": the first inter-arrival gap is measured
			// from Start, without sending at Start itself.
			h.Engine().Schedule(g.Start, src, 1)
		}
	}
	r.nsrc += gr.sources
	return nil
}

func compileFlows(g *Group, gr *groupRun, hosts []*host.Host, seed int64, r *Runner) error {
	f := g.Flows
	if f.Flows <= 0 {
		return errors.New("Flows must be > 0")
	}
	pktSize := f.PktSize
	if pktSize == 0 {
		pktSize = 1500
	}
	dstPort := f.DstPort
	if dstPort == 0 {
		dstPort = 9100
	}
	maxStart := f.MaxStart
	if maxStart == 0 {
		maxStart = sim.Millisecond
	}
	sportBase := g.SportBase
	if sportBase == 0 {
		sportBase = 20000
	}
	cand, _, err := resolve(hosts, g.Hosts)
	if err != nil {
		return fmt.Errorf("Hosts: %w", err)
	}
	if len(cand) < 2 {
		return errors.New("Flows needs at least 2 hosts")
	}
	// Draw order the golden fingerprints pin: sinks on every candidate
	// first, then one shared group RNG drawing src, dst,
	// then the start jitter per flow.
	for _, h := range cand {
		r.Sinks = append(r.Sinks, transport.NewSink(h, dstPort, link.ProtoUDP))
	}
	stopAt := stopOf(g)
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < f.Flows; i++ {
		si := rng.Intn(len(cand))
		di := rng.Intn(len(cand))
		for di == si {
			di = rng.Intn(len(cand))
		}
		fl := transport.NewUDPFlow(cand[si], cand[di].ID(), uint16(sportBase+i), dstPort, pktSize)
		fl.SetRateBps(f.RateBps)
		r.UDPFlows = append(r.UDPFlows, fl)
		h := udpHalter{fl}
		r.sources = append(r.sources, h)
		start := g.Start + sim.Time(rng.Int63n(int64(maxStart)))
		cand[si].Engine().Schedule(start, h, udpStart)
		if stopAt != unbounded {
			cand[si].Engine().Schedule(stopAt, h, udpStop)
		}
	}
	gr.sources += f.Flows
	r.nsrc += f.Flows
	return nil
}

// udpHalter is a canned UDP flow's switch: the runner halts it, and as an
// event handler it starts (udpStart) or stops (udpStop) it at the group's
// Start and Stop instants.
type udpHalter struct{ f *transport.UDPFlow }

const (
	udpStart uint64 = iota
	udpStop
)

func (u udpHalter) halt() { u.f.Stop() }

func (u udpHalter) Handle(arg uint64) {
	if arg == udpStart {
		u.f.Start()
	} else {
		u.f.Stop()
	}
}
