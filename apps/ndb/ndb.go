// Package ndb refactors the NetSight troubleshooting platform onto the TPP
// interface (§2.3). A trusted per-host agent inserts
//
//	PUSH [Switch:ID]
//	PUSH [PacketMetadata:MatchedEntryID]
//	PUSH [PacketMetadata:InputPort]
//
// on (a subset of) packets; the receiving host reconstructs a *packet
// history* — "a record of the packet's path through the network and the
// switch forwarding state applied to the packet" — without the network ever
// creating extra packet copies. On top of the history store this package
// provides the paper's four applications: netshark (network-wide tcpdump
// with queries), ndb (interactive debugger with backtraces, the package's
// namesake), netwatch (live policy checking via a typed violation stream)
// and loss localization via drop notifications.
//
// Deployment implements the app.App contract: New(cfg) → Attach → (run
// traffic) → Close. Collection is passive; Watch attaches live policies.
package ndb

import (
	"fmt"
	"strings"

	"minions/internal/asm"
	"minions/internal/core"
	"minions/tppnet"
	"minions/tppnet/app"
)

// Program is the packet-history TPP of §2.3.
const Program = `
	PUSH [Switch:ID]
	PUSH [PacketMetadata:MatchedEntryID]
	PUSH [PacketMetadata:InputPort]
`

// WordsPerHop is the per-hop record size.
const WordsPerHop = 3

// DefaultHops is the paper's sizing example ("space for 10 hops").
const DefaultHops = 10

// HopRecord is one switch's forwarding decision for a packet.
type HopRecord struct {
	SwitchID  uint32
	EntryID   uint32 // matched flow entry (its version-carrying identity)
	InputPort uint32
}

// History is a packet history.
type History struct {
	At      tppnet.Time
	Flow    tppnet.FlowKey
	PktID   uint64
	Hops    []HopRecord
	Dropped bool // true when reconstructed from a drop notification
	DropAt  uint32
}

// Path renders the history's switch path like "1>3>7".
func (h History) Path() string {
	var b strings.Builder
	for i, hop := range h.Hops {
		if i > 0 {
			b.WriteByte('>')
		}
		fmt.Fprintf(&b, "%d", hop.SwitchID)
	}
	return b.String()
}

// Collector is the central service receiving histories from all hosts. Its
// live feed is a typed stream: Stream().Subscribe for every arrival.
type Collector struct {
	histories []History
	stream    app.Stream[History]
}

// Add appends a history and publishes it on the live stream.
func (c *Collector) Add(h History) {
	c.histories = append(c.histories, h)
	c.stream.Publish(h)
}

// Stream returns the live history feed.
func (c *Collector) Stream() *app.Stream[History] { return &c.stream }

// Len returns the number of stored histories.
func (c *Collector) Len() int { return len(c.histories) }

// Query returns histories matching pred — the "SQL over stored traces"
// netshark/ndb interface.
func (c *Collector) Query(pred func(History) bool) []History {
	var out []History
	for _, h := range c.histories {
		if pred(h) {
			out = append(out, h)
		}
	}
	return out
}

// ByFlow returns the histories of one flow, in arrival order (ndb's
// backtrace for a flow).
func (c *Collector) ByFlow(f tppnet.FlowKey) []History {
	return c.Query(func(h History) bool { return h.Flow == f })
}

// TraversedSwitch returns histories whose path includes the switch.
func (c *Collector) TraversedSwitch(id uint32) []History {
	return c.Query(func(h History) bool {
		for _, hop := range h.Hops {
			if hop.SwitchID == id {
				return true
			}
		}
		return false
	})
}

// Drops returns the loss-localization records.
func (c *Collector) Drops() []History {
	return c.Query(func(h History) bool { return h.Dropped })
}

// Config parameterizes a deployment; zero values take the paper's defaults.
type Config struct {
	// Filter selects the traffic whose histories are collected.
	Filter tppnet.FilterSpec
	// SampleFreq collects one in N matching packets (default 1 = all).
	SampleFreq int
	// Hops sizes the TPP's packet memory (default DefaultHops).
	Hops int
	// Hosts limits installation to a subset; nil instruments every host.
	Hosts []*tppnet.Host
	// Switches limits drop mirroring to a subset; nil mirrors every switch.
	Switches []*tppnet.Switch
}

func (c Config) withDefaults() Config {
	if c.SampleFreq == 0 {
		c.SampleFreq = 1
	}
	if c.Hops == 0 {
		c.Hops = DefaultHops
	}
	return c
}

// Deployment wires the application: TPPs on sources, aggregators on
// receivers, drop mirroring on switches.
type Deployment struct {
	app.Base
	cfg Config
	// Collector is the central history store and live stream.
	Collector *Collector
	// Hops is the deployed per-TPP hop budget.
	Hops int

	dropCancels []func()
	violations  app.Stream[Violation]
	watching    bool
	policies    []Policy
}

// New creates a packet-history deployment; Attach installs it.
func New(cfg Config) *Deployment {
	cfg = cfg.withDefaults()
	return &Deployment{
		Base:      app.MakeBase("netsight"),
		cfg:       cfg,
		Collector: &Collector{},
		Hops:      cfg.Hops,
	}
}

// Attach implements app.App: it registers the application identity,
// installs the history TPP (with drop notification) on every selected
// host's matching traffic, registers history-reconstructing aggregators,
// and hooks §2.6 loss localization into every selected switch's drop path.
func (d *Deployment) Attach(n *tppnet.Network, cp *tppnet.ControlPlane) error {
	if err := d.Provision(d, n, cp); err != nil {
		return err
	}
	hosts := d.cfg.Hosts
	if hosts == nil {
		hosts = n.Hosts
	}
	switches := d.cfg.Switches
	if switches == nil {
		switches = n.Switches
	}
	col := d.Collector
	src := fmt.Sprintf(".hops %d\n.flags dropnotify\n%s", d.cfg.Hops, Program)
	for _, h := range hosts {
		prog, err := asm.Assemble(src)
		if err != nil {
			return err
		}
		if _, err := d.InstallTPP(h, d.cfg.Filter, prog, d.cfg.SampleFreq, 20); err != nil {
			return err
		}
		h := h
		if err := d.Aggregate(h, func(p *tppnet.Packet, view core.Section) {
			col.Add(historyFrom(h.Engine().Now(), p, view, false, 0))
		}); err != nil {
			return err
		}
	}
	// §2.6 loss localization: switches mirror dropped DropNotify TPPs;
	// this deployment keeps the ones carrying its own application ID.
	wire := d.ID().Wire
	for _, sw := range switches {
		id := sw.ID()
		d.dropCancels = append(d.dropCancels, sw.DropNotifies().Subscribe(func(ev tppnet.DropEvent) {
			if p := ev.Packet; p.TPP.AppID() == wire {
				col.Add(historyFrom(0, p, p.TPP, true, id))
			}
		}))
	}
	return nil
}

// Close cancels the switch drop-notify subscriptions, then releases the
// app's filters, aggregators and control-plane state.
func (d *Deployment) Close() error {
	for _, cancel := range d.dropCancels {
		cancel()
	}
	d.dropCancels = nil
	return d.Base.Close()
}

// Watch attaches live policy checking (the paper's netwatch): every
// incoming history is checked against the policies, and violations are
// published on the returned typed stream. Call it any number of times;
// use app.Collect to accumulate violations into a slice.
func (d *Deployment) Watch(policies ...Policy) *app.Stream[Violation] {
	if !d.watching {
		d.watching = true
		d.Collector.Stream().Subscribe(func(h History) {
			for _, p := range d.policies {
				if v := p(h); v != nil {
					d.violations.Publish(*v)
				}
			}
		})
	}
	d.policies = append(d.policies, policies...)
	return &d.violations
}

// Violations returns the live violation stream fed by Watch.
func (d *Deployment) Violations() *app.Stream[Violation] { return &d.violations }

func historyFrom(at tppnet.Time, p *tppnet.Packet, view core.Section, dropped bool, dropAt uint32) History {
	h := History{At: at, Flow: p.Flow, PktID: p.ID, Dropped: dropped, DropAt: dropAt}
	for _, hop := range view.StackView(WordsPerHop) {
		h.Hops = append(h.Hops, HopRecord{
			SwitchID:  hop.Words[0],
			EntryID:   hop.Words[1],
			InputPort: hop.Words[2],
		})
	}
	return h
}

// OverheadBytes is the §2.3 accounting: TPP header + 3 instructions +
// per-hop data for the given path budget.
func OverheadBytes(hops int) int {
	return core.HeaderLen + 3*core.InsnSize + hops*WordsPerHop*core.WordSize
}

// Violation is a netwatch policy violation.
type Violation struct {
	Policy  string
	History History
	Detail  string
}

// Policy checks a packet history; nil means conforming.
type Policy func(History) *Violation

// IsolationPolicy flags any flow between the two host groups (tenant
// isolation, the paper's netwatch example).
func IsolationPolicy(groupA, groupB map[tppnet.NodeID]bool) Policy {
	return func(h History) *Violation {
		cross := (groupA[h.Flow.Src] && groupB[h.Flow.Dst]) ||
			(groupB[h.Flow.Src] && groupA[h.Flow.Dst])
		if cross {
			return &Violation{
				Policy:  "isolation",
				History: h,
				Detail:  fmt.Sprintf("flow %v crosses tenant boundary", h.Flow),
			}
		}
		return nil
	}
}

// WaypointPolicy requires every history to traverse the given switch (e.g.
// a firewall) — a path-conformance check.
func WaypointPolicy(switchID uint32) Policy {
	return func(h History) *Violation {
		for _, hop := range h.Hops {
			if hop.SwitchID == switchID {
				return nil
			}
		}
		return &Violation{
			Policy:  "waypoint",
			History: h,
			Detail:  fmt.Sprintf("path %s avoids waypoint %d", h.Path(), switchID),
		}
	}
}

// LoopPolicy flags histories visiting any switch twice.
func LoopPolicy() Policy {
	return func(h History) *Violation {
		seen := map[uint32]bool{}
		for _, hop := range h.Hops {
			if seen[hop.SwitchID] {
				return &Violation{
					Policy:  "loop",
					History: h,
					Detail:  fmt.Sprintf("switch %d repeated on %s", hop.SwitchID, h.Path()),
				}
			}
			seen[hop.SwitchID] = true
		}
		return nil
	}
}
