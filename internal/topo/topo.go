// Package topo builds simulated networks: it wires hosts and TPP-capable
// switches with bidirectional links, computes shortest-path routes with ECMP
// groups, pushes the TPP-CP access policy into every switch, and provides
// the specific topologies of the paper's experiments (the Figure 1 dumbbell,
// the Figure 2 two-link chain, the Figure 4 CONGA leaf-spine, and k-ary
// fat-trees for the §2.5 measurement sizing).
package topo

import (
	"fmt"
	"slices"

	"minions/internal/device"
	"minions/internal/host"
	"minions/internal/link"
	"minions/internal/sim"
)

// SwitchNodeBase is the default offset of switch node IDs away from host
// IDs. Networks whose host count reaches it derive a larger base instead
// (see EnsureSwitchBase); creating a host whose ID would collide with an
// existing switch fails loudly rather than silently aliasing addresses.
const SwitchNodeBase = 1000

// Network is a wired simulation: engines (one per topology shard), control
// plane, nodes and links. With one shard (the default) it behaves exactly
// like the original single-engine simulator; with more, nodes are assigned
// to shards (see PlanPartition) and the shards advance conservatively under
// a sim.ShardGroup, exchanging boundary packets over its channels.
type Network struct {
	Eng      *sim.Engine // shard 0's engine (setup-time scheduling, 1-shard runs)
	CP       *host.ControlPlane
	Switches []*device.Switch
	Hosts    []*host.Host

	nextPort []int32 // per-switch next free port, parallel to Switches
	links    []*link.Link
	linkEnds []LinkEnds // parallel to links: who transmits to whom
	nextLink uint32

	// The directed adjacency is an append-only edge log (two records per
	// Connect); ComputeRoutes compacts it into a CSR once all wiring is
	// known. Flat parallel slices instead of a map of edge lists keep a
	// k=32 fat-tree's adjacency at a few hundred kilobytes.
	edgeFrom []link.NodeID
	edgeTo   []link.NodeID
	edgePort []int32

	engines []*sim.Engine
	pools   []*link.Pool
	group   *sim.ShardGroup // nil for single-shard networks

	// Shard assignment, dense per node class: hostShard parallels Hosts,
	// switchShard parallels Switches.
	hostShard   []int32
	switchShard []int32
	plan        []int // planned shard per upcoming node, in creation order
	planNext    int
	switchBase  link.NodeID

	// ftK records the arity when the topology is a FatTree build, letting
	// ComputeRoutes use the arithmetic pod-structure route builder instead
	// of per-destination BFS. forceBFS is the equivalence-test hook that
	// routes a fat-tree generically anyway.
	ftK      int
	forceBFS bool
}

// New creates an empty single-shard network with a deterministic engine.
func New(seed int64) *Network { return NewSharded(seed, 1) }

// NewSharded creates an empty network whose nodes will be spread over
// shards topology shards, each with its own engine, RNG stream and packet
// pool. Shard 0's engine is seeded with seed itself, so a one-shard network
// is byte-identical to the historical single-engine simulator; further
// shards get distinct deterministic streams derived from seed.
func NewSharded(seed int64, shards int) *Network {
	if shards < 1 {
		shards = 1
	}
	engines := make([]*sim.Engine, shards)
	pools := make([]*link.Pool, shards)
	for i := range engines {
		s := seed
		if i > 0 {
			// Distinct per-shard RNG streams: a large odd stride keeps the
			// seeds unique for any base seed.
			s = seed + int64(i)*0x4E3779B97F4A7C15
		}
		engines[i] = sim.New(s)
		pools[i] = link.NewPool()
	}
	n := &Network{
		Eng:        engines[0],
		CP:         host.NewControlPlane(),
		engines:    engines,
		pools:      pools,
		switchBase: SwitchNodeBase,
	}
	if shards > 1 {
		n.group = sim.NewShardGroup(engines)
	}
	return n
}

// Shards returns the shard count (1 for the classic single-engine network).
func (n *Network) Shards() int { return len(n.engines) }

// ShardEngine returns shard i's engine.
func (n *Network) ShardEngine(i int) *sim.Engine { return n.engines[i] }

// ShardOf returns the shard a node was assigned to (0 for unknown IDs).
func (n *Network) ShardOf(id link.NodeID) int {
	if id > n.switchBase {
		if i := int(id - n.switchBase - 1); i < len(n.switchShard) {
			return int(n.switchShard[i])
		}
		return 0
	}
	if i := int(id) - 1; i >= 0 && i < len(n.hostShard) {
		return int(n.hostShard[i])
	}
	return 0
}

// Grow pre-sizes node, link and adjacency storage for a topology whose
// dimensions are known up front: hosts and switches to be created and
// connects bidirectional Connect calls. Builders with analytic sizes (the
// fat-tree) use it so wiring a large fabric never re-grows a slice.
func (n *Network) Grow(hosts, switches, connects int) {
	n.Hosts = slices.Grow(n.Hosts, hosts)
	n.hostShard = slices.Grow(n.hostShard, hosts)
	n.Switches = slices.Grow(n.Switches, switches)
	n.switchShard = slices.Grow(n.switchShard, switches)
	n.nextPort = slices.Grow(n.nextPort, switches)
	n.links = slices.Grow(n.links, 2*connects)
	n.linkEnds = slices.Grow(n.linkEnds, 2*connects)
	n.edgeFrom = slices.Grow(n.edgeFrom, 2*connects)
	n.edgeTo = slices.Grow(n.edgeTo, 2*connects)
	n.edgePort = slices.Grow(n.edgePort, 2*connects)
}

// Group returns the shard synchronizer, nil for single-shard networks.
func (n *Network) Group() *sim.ShardGroup { return n.group }

// PlanPartition queues the shard assignment for the next len(assign) nodes
// created, in creation order — how topology builders apply a partition
// computed before any node exists (see PartitionGraph/FatTreePartition).
// Nodes created beyond the plan default to shard 0.
func (n *Network) PlanPartition(assign []int) {
	n.plan = assign
	n.planNext = 0
}

// nextShard consumes the next planned shard assignment.
func (n *Network) nextShard() int {
	s := 0
	if n.planNext < len(n.plan) {
		s = n.plan[n.planNext]
	}
	n.planNext++
	if s < 0 || s >= len(n.engines) {
		panic(fmt.Sprintf("topo: planned shard %d out of range (%d shards)", s, len(n.engines)))
	}
	return s
}

// Prewarm pre-commits the data path's growth headroom for workload-driven
// measurement runs: every link's queue rings are sized to their drop-tail
// worst case for minWire-byte frames (<= 0 assumes the 55-byte minimum),
// and when tppBytes > 0 every idle pool packet gets a TPP section buffer of
// that size. Heavy-tailed workloads otherwise keep setting record depths —
// each a mid-window allocation — long after any reasonable warmup. Purely
// allocation hygiene: simulated behavior, counters and fingerprints are
// byte-identical with or without it.
func (n *Network) Prewarm(minWire, tppBytes int) {
	for _, l := range n.links {
		l.PresizeQueues(minWire)
	}
	if tppBytes > 0 {
		for _, p := range n.pools {
			p.WarmBuffers(tppBytes)
		}
	}
}

// PacketPool returns shard 0's packet free list — the network-wide list for
// single-shard networks. Steady-state traffic recycles packets through the
// per-shard pools, so the forward path allocates nothing per packet (see
// link.Pool for ownership rules).
func (n *Network) PacketPool() *link.Pool { return n.pools[0] }

// PoolStats sums (gets, puts, news) over every shard's packet pool.
func (n *Network) PoolStats() (gets, puts, news uint64) {
	for _, p := range n.pools {
		g, pu, ne := p.Stats()
		gets += g
		puts += pu
		news += ne
	}
	return
}

// PoolOutstanding sums gets − puts over every shard's pool: the number of
// pool packets currently owned outside the pools. Zero after a drained run
// is the leak invariant chaos tests enforce.
func (n *Network) PoolOutstanding() int64 {
	var out int64
	for _, p := range n.pools {
		out += p.Outstanding()
	}
	return out
}

// EnsureSwitchBase raises the switch node-ID base to accommodate maxHosts
// hosts. Builders call it up front (host counts are known before wiring);
// it panics if switches were already created with the smaller base, because
// their addresses are already wired into links and routes.
func (n *Network) EnsureSwitchBase(maxHosts int) {
	// Host IDs run 1..maxHosts and switch IDs start at base+1, so a base of
	// exactly maxHosts is already collision-free.
	need := link.NodeID(maxHosts)
	if need <= n.switchBase {
		return
	}
	if len(n.Switches) > 0 {
		panic(fmt.Sprintf("topo: EnsureSwitchBase(%d) after %d switches were created at base %d",
			maxHosts, len(n.Switches), n.switchBase))
	}
	n.switchBase = need
}

// AddSwitch creates a switch with numPorts ports.
func (n *Network) AddSwitch(numPorts int) *device.Switch {
	id := uint32(len(n.Switches) + 1)
	shard := n.nextShard()
	sw := device.New(n.engines[shard], device.Config{
		ID:       id,
		NumPorts: numPorts,
		NodeID:   n.switchBase + link.NodeID(id),
		VendorID: 0xACE1,
	})
	sw.SetWritePolicy(n.CP.SwitchWritePolicy())
	n.Switches = append(n.Switches, sw)
	n.switchShard = append(n.switchShard, int32(shard))
	n.nextPort = append(n.nextPort, 0)
	return sw
}

// AddHost creates a host. Host node IDs start at 1.
func (n *Network) AddHost() *host.Host {
	// Switch NodeIDs start at switchBase+1, so host IDs up to and including
	// the base are collision-free.
	id := link.NodeID(len(n.Hosts) + 1)
	if id > n.switchBase {
		panic(fmt.Sprintf(
			"topo: host NodeID %d collides with switch base %d; call EnsureSwitchBase(hosts) before creating switches",
			id, n.switchBase))
	}
	shard := n.nextShard()
	h := host.New(n.engines[shard], id, n.CP)
	h.SetPool(n.pools[shard])
	n.Hosts = append(n.Hosts, h)
	n.hostShard = append(n.hostShard, int32(shard))
	return h
}

// Run processes events until none remain anywhere, returning the count.
func (n *Network) Run() int {
	if n.group == nil {
		return n.Eng.Run()
	}
	return n.group.Run()
}

// RunUntil processes all events with timestamps <= deadline across every
// shard, advancing all clocks to the deadline, and returns the count.
func (n *Network) RunUntil(deadline sim.Time) int {
	if n.group == nil {
		return n.Eng.RunUntil(deadline)
	}
	return n.group.RunUntil(deadline)
}

// Now returns the network's virtual clock (the common shard barrier time).
func (n *Network) Now() sim.Time {
	if n.group == nil {
		return n.Eng.Now()
	}
	return n.group.Now()
}

// nodeID returns the network address of a host or switch.
func nodeID(v any) link.NodeID {
	switch x := v.(type) {
	case *host.Host:
		return x.ID()
	case *device.Switch:
		return x.NodeID()
	}
	panic(fmt.Sprintf("topo: unsupported node %T", v))
}

func receiver(v any) link.Receiver {
	switch x := v.(type) {
	case *host.Host:
		return x
	case *device.Switch:
		return x
	}
	panic(fmt.Sprintf("topo: unsupported node %T", v))
}

// allocPort reserves the next port index on a node (always 0 for hosts).
func (n *Network) allocPort(v any) int {
	if _, ok := v.(*host.Host); ok {
		return 0
	}
	// Switch NodeIDs are sequential above the base, so the ID recovers the
	// switch's index into the per-switch port counters.
	i := int(nodeID(v) - n.switchBase - 1)
	p := n.nextPort[i]
	n.nextPort[i] = p + 1
	return int(p)
}

// Connect wires a and b with a bidirectional link pair of the given config
// and returns the two unidirectional links (a->b, b->a). Each unidirectional
// link lives in its transmitter's shard; when the endpoints sit in different
// shards, both directions become boundary links whose deliveries cross over
// per-direction sim.Channels (and whose propagation delay is each
// crossing's conservative lookahead).
func (n *Network) Connect(a, b any, cfg link.Config) (*link.Link, *link.Link) {
	pa, pb := n.allocPort(a), n.allocPort(b)

	ida, idb := nodeID(a), nodeID(b)
	sa, sb := n.ShardOf(ida), n.ShardOf(idb)
	lab := link.New(n.engines[sa], cfg, receiver(b), pb)
	lba := link.New(n.engines[sb], cfg, receiver(a), pa)
	if sa != sb {
		lab.BindBoundary(sa, sb, n.pools[sb]).Register(n.group)
		lba.BindBoundary(sb, sa, n.pools[sa]).Register(n.group)
	}
	n.attach(a, pa, lab)
	n.attach(b, pb, lba)

	n.edgeFrom = append(n.edgeFrom, ida, idb)
	n.edgeTo = append(n.edgeTo, idb, ida)
	n.edgePort = append(n.edgePort, int32(pa), int32(pb))
	n.links = append(n.links, lab, lba)
	n.linkEnds = append(n.linkEnds, LinkEnds{Src: ida, Dst: idb}, LinkEnds{Src: idb, Dst: ida})
	return lab, lba
}

// LinkEnds names the endpoints of one unidirectional link: Src transmits,
// Dst receives. Fault plans use it to pick links by role (e.g. an
// aggregation-to-core uplink) instead of by creation index.
type LinkEnds struct {
	Src, Dst link.NodeID
}

// LinkEndsOf returns the endpoints of link i (same indexing as Links()).
func (n *Network) LinkEndsOf(i int) LinkEnds { return n.linkEnds[i] }

// IsSwitchNode reports whether id addresses a switch (as opposed to a
// host). Switch NodeIDs live above the host range, starting at
// switchBase+1.
func (n *Network) IsSwitchNode(id link.NodeID) bool { return id > n.switchBase }

func (n *Network) attach(v any, port int, l *link.Link) {
	n.nextLink++
	switch x := v.(type) {
	case *host.Host:
		x.AttachNIC(l)
	case *device.Switch:
		x.AttachLink(port, l, n.nextLink)
	}
}

// Links returns every unidirectional link, in creation order.
func (n *Network) Links() []*link.Link { return n.links }

// ComputeRoutes installs shortest-path routes with ECMP groups on every
// switch, for every host and switch destination. Equal-cost next hops all
// land in the route's port group; switches hash flows (and the path tag)
// across them. Fat-trees built by FatTree are routed arithmetically from
// their pod structure; everything else runs per-destination BFS over a CSR
// compaction of the adjacency with flat reusable scratch. Both builders
// install identical tables in identical order (entry IDs and table
// versions included) — the equivalence tests pin this.
//
// It also closes out any pending partition plan: a plan is positional (the
// i-th planned shard binds to the i-th node created), so a builder that
// created more or fewer nodes than its PartGraph described would silently
// mis-assign every subsequent node — fail loudly instead. Nodes created
// after this point intentionally default to shard 0.
func (n *Network) ComputeRoutes() {
	if len(n.plan) > 0 {
		if n.planNext != len(n.plan) {
			panic(fmt.Sprintf(
				"topo: partition plan covers %d nodes but %d were created — builder creation order diverged from its PartGraph",
				len(n.plan), n.planNext))
		}
		n.plan = nil
		n.planNext = 0
	}
	// Shape every switch's dense route table up front: hosts and switch
	// count are final here, so both table regions allocate exactly once.
	maxHost := link.NodeID(len(n.Hosts))
	for _, sw := range n.Switches {
		sw.PresizeRoutes(maxHost, n.switchBase, len(n.Switches))
	}
	if n.ftK > 0 && !n.forceBFS {
		n.fatTreeRoutes()
		return
	}
	n.bfsRoutes()
}

// bfsRoutes is the generic route builder: one BFS per destination over the
// CSR adjacency, reusing flat scratch (distance array, queue, port buffer)
// across destinations so no per-destination map is ever allocated.
func (n *Network) bfsRoutes() {
	h, s := len(n.Hosts), len(n.Switches)
	nn := h + s
	// Compact node index: hosts 0..h-1, switches h..nn-1.
	idx := func(id link.NodeID) int32 {
		if id > n.switchBase {
			return int32(h) + int32(id-n.switchBase) - 1
		}
		return int32(id) - 1
	}
	// CSR compaction of the edge log; the counting sort preserves each
	// node's edge insertion order, which fixes ECMP group port order.
	ne := len(n.edgeFrom)
	start := make([]int32, nn+1)
	for _, f := range n.edgeFrom {
		start[idx(f)+1]++
	}
	for i := 1; i <= nn; i++ {
		start[i] += start[i-1]
	}
	peer := make([]int32, ne)
	port := make([]int32, ne)
	cursor := make([]int32, nn)
	copy(cursor, start[:nn])
	for e := 0; e < ne; e++ {
		f := idx(n.edgeFrom[e])
		c := cursor[f]
		cursor[f] = c + 1
		peer[c] = idx(n.edgeTo[e])
		port[c] = n.edgePort[e]
	}

	dist := make([]int32, nn)
	queue := make([]int32, 0, nn)
	ports := make([]int, 0, 16)
	route := func(dst link.NodeID) {
		for i := range dist {
			dist[i] = -1
		}
		queue = queue[:0]
		d0 := idx(dst)
		dist[d0] = 0
		queue = append(queue, d0)
		for qi := 0; qi < len(queue); qi++ {
			cur := queue[qi]
			dnext := dist[cur] + 1
			for e := start[cur]; e < start[cur+1]; e++ {
				if p := peer[e]; dist[p] < 0 {
					dist[p] = dnext
					queue = append(queue, p)
				}
			}
		}
		for si, sw := range n.Switches {
			if sw.NodeID() == dst {
				continue
			}
			ni := int32(h + si)
			d := dist[ni]
			if d < 0 {
				continue // unreachable
			}
			ports = ports[:0]
			for e := start[ni]; e < start[ni+1]; e++ {
				if dist[peer[e]] == d-1 {
					ports = append(ports, int(port[e]))
				}
			}
			if len(ports) > 0 {
				sw.AddRoute(dst, ports...)
			}
		}
	}
	for _, hst := range n.Hosts {
		route(hst.ID())
	}
	for _, sw := range n.Switches {
		route(sw.NodeID())
	}
}

// fatTreeRoutes installs the same tables BFS would produce on a FatTree
// build, derived arithmetically from the pod structure: every (destination,
// switch) pair's ECMP group is one of four precomputed shapes — a single
// port, all downlinks/edge-uplinks [0, k/2), all core uplinks [k/2, k), or
// every port. Near-linear in table size instead of O(N²·α) map-backed BFS.
//
// The coordinate system follows the FatTree wiring order exactly:
//   - switch index: cores 0..(k/2)²-1 (core c attaches to aggregation
//     position c/(k/2) in every pod); then per pod p the k switches
//     alternate agg(p,0), edge(p,0), agg(p,1), edge(p,1), …
//   - ports: agg(p,i) reaches edge(p,m) on port m and core i·(k/2)+j on
//     port (k/2)+j; edge(p,m) reaches agg(p,i) on port i and its j-th host
//     on port (k/2)+j; core c reaches pod p on port p.
//   - host ID: pod q, edge m, slot j is 1 + q·(k/2)² + m·(k/2) + j.
//
// Destinations iterate hosts then switches in creation order, switches in
// creation order within each destination — the BFS builder's exact order,
// so entry IDs and table versions also match byte for byte.
func (n *Network) fatTreeRoutes() {
	k := n.ftK
	half := k / 2
	numCores := half * half
	hostsPerPod := half * half

	upLow := make([]int, half)  // ports [0, k/2): edge→aggs, agg→edges
	upHigh := make([]int, half) // ports [k/2, k): agg→cores
	all := make([]int, k)
	singles := make([][]int, k)
	for i := 0; i < k; i++ {
		all[i] = i
		singles[i] = []int{i}
		if i < half {
			upLow[i] = i
		} else {
			upHigh[i-half] = i
		}
	}

	// routeOne installs dst's entry on every switch. dq/di/dj are the
	// destination's coordinates: host (pod, edge, slot), edge (pod, m, -),
	// agg (pod, i, -), core (-, c/(k/2), c%(k/2)).
	const (
		ftHost = iota
		ftEdge
		ftAgg
		ftCore
	)
	routeOne := func(dst link.NodeID, dk, dq, di, dj int) {
		for si, sw := range n.Switches {
			if sw.NodeID() == dst {
				continue
			}
			var g []int
			if si < numCores {
				// Core switch: one downlink per pod, pods on ports 0..k-1.
				if dk == ftCore {
					g = all // 2 hops down+up via any pod, or 4 via any pod
				} else {
					g = singles[dq] // straight down into the target pod
				}
			} else {
				rem := si - numCores
				p := rem / k
				o := rem % k
				i := o / 2
				if o%2 == 0 {
					// Aggregation switch agg(p, i).
					switch dk {
					case ftHost, ftEdge:
						if p == dq {
							g = singles[di] // down to the owning edge
						} else {
							g = upHigh // any core uplink
						}
					case ftAgg:
						switch {
						case p == dq:
							g = upLow // down via any edge, back up
						case i == di:
							g = upHigh // shared cores, 2 hops
						default:
							// 4 hops whether it first goes down or up:
							// every port is on a shortest path.
							g = all
						}
					case ftCore:
						if i == di {
							g = singles[half+dj] // directly attached core
						} else {
							g = upLow // down, across an agg that owns it
						}
					}
				} else {
					// Edge switch edge(p, m=i).
					switch dk {
					case ftHost:
						if p == dq && i == di {
							g = singles[half+dj] // the host's own port
						} else {
							g = upLow
						}
					case ftEdge:
						g = upLow // self was skipped above
					case ftAgg, ftCore:
						g = singles[di] // only agg position di leads there
					}
				}
			}
			sw.AddRoute(dst, g...)
		}
	}

	for hid := 1; hid <= len(n.Hosts); hid++ {
		h0 := hid - 1
		routeOne(link.NodeID(hid), ftHost,
			h0/hostsPerPod, (h0%hostsPerPod)/half, h0%half)
	}
	for si, sw := range n.Switches {
		if si < numCores {
			routeOne(sw.NodeID(), ftCore, -1, si/half, si%half)
		} else {
			rem := si - numCores
			p := rem / k
			o := rem % k
			if o%2 == 0 {
				routeOne(sw.NodeID(), ftAgg, p, o/2, -1)
			} else {
				routeOne(sw.NodeID(), ftEdge, p, o/2, -1)
			}
		}
	}
}

// HostLink returns the 100 Mb/s-class config used for host attachments in
// the paper's Mininet experiments.
func HostLink(rateMbps int) link.Config {
	return link.Config{
		RateBps: int64(rateMbps) * 1_000_000,
		Delay:   5 * sim.Microsecond,
	}
}

// Dumbbell builds the Figure 1 topology: two switches joined by one link,
// half the hosts on each side. All links run at rateMbps.
func Dumbbell(n *Network, hosts, rateMbps int) ([]*host.Host, *device.Switch, *device.Switch) {
	n.EnsureSwitchBase(hosts)
	if s := n.Shards(); s > 1 {
		// Creation order: left(0), right(1), hosts 2..hosts+1.
		g := PartGraph{N: hosts + 2, Edges: [][2]int{{0, 1}}}
		for i := 0; i < hosts; i++ {
			sw := 0
			if i >= hosts/2 {
				sw = 1
			}
			g.Edges = append(g.Edges, [2]int{2 + i, sw})
		}
		n.PlanPartition(PartitionGraph(g, s))
	}
	left := n.AddSwitch(hosts/2 + 2)
	right := n.AddSwitch(hosts - hosts/2 + 2)
	cfg := HostLink(rateMbps)
	var hs []*host.Host
	for i := 0; i < hosts; i++ {
		h := n.AddHost()
		if i < hosts/2 {
			n.Connect(h, left, cfg)
		} else {
			n.Connect(h, right, cfg)
		}
		hs = append(hs, h)
	}
	n.Connect(left, right, cfg)
	n.ComputeRoutes()
	return hs, left, right
}

// Chain builds the Figure 2 topology: switches S1-S2-S3 in a line with the
// two inter-switch links at rateMbps. Flow a (host0 at S1 -> host3 at S3)
// traverses both links; flow b (host1 at S1 -> host4 at S2) the first; flow
// c (host2 at S2 -> host5 at S3) the second. Host links run 10x faster so
// the shared links are the bottlenecks.
func Chain(n *Network, rateMbps int) ([]*host.Host, []*device.Switch) {
	if s := n.Shards(); s > 1 {
		// Creation order: s1(0) s2(1) s3(2), hosts a,b,c,da,db,dc at 3..8.
		g := PartGraph{N: 9, Edges: [][2]int{
			{3, 0}, {4, 0}, {5, 1}, {6, 2}, {7, 1}, {8, 2}, {0, 1}, {1, 2},
		}}
		n.PlanPartition(PartitionGraph(g, s))
	}
	s1 := n.AddSwitch(6)
	s2 := n.AddSwitch(6)
	s3 := n.AddSwitch(6)
	fast := HostLink(rateMbps * 10)
	slow := HostLink(rateMbps)

	hostAt := func(sw *device.Switch) *host.Host {
		h := n.AddHost()
		n.Connect(h, sw, fast)
		return h
	}
	a, b, c := hostAt(s1), hostAt(s1), hostAt(s2)
	da, db, dc := hostAt(s3), hostAt(s2), hostAt(s3)

	n.Connect(s1, s2, slow)
	n.Connect(s2, s3, slow)
	n.ComputeRoutes()
	return []*host.Host{a, b, c, da, db, dc}, []*device.Switch{s1, s2, s3}
}

// Conga builds the Figure 4 leaf-spine: leaves L0, L1, L2 each connected to
// spines S0 and S1 at rateMbps, one host per leaf. The L0 host's flows are
// confined to the S0 path (the paper: "the flow from L0 to L2 uses only one
// path") by a post-route fixup; L1's flows may use both spines.
func Conga(n *Network, rateMbps int) (hosts []*host.Host, leaves, spines []*device.Switch) {
	if s := n.Shards(); s > 1 {
		// Creation order: l0,l1,l2 (0-2), s0,s1 (3-4), h0,h1,h2 (5-7).
		g := PartGraph{N: 8, Edges: [][2]int{
			{5, 0}, {6, 1}, {7, 2},
			{0, 3}, {0, 4}, {1, 3}, {1, 4}, {2, 3}, {2, 4},
		}}
		n.PlanPartition(PartitionGraph(g, s))
	}
	l0, l1, l2 := n.AddSwitch(4), n.AddSwitch(4), n.AddSwitch(4)
	s0, s1 := n.AddSwitch(4), n.AddSwitch(4)
	cfg := HostLink(rateMbps)
	fast := HostLink(rateMbps * 10)

	h0, h1, h2 := n.AddHost(), n.AddHost(), n.AddHost()
	n.Connect(h0, l0, fast)
	n.Connect(h1, l1, fast)
	n.Connect(h2, l2, fast)

	n.Connect(l0, s0, cfg)
	n.Connect(l0, s1, cfg)
	n.Connect(l1, s0, cfg)
	n.Connect(l1, s1, cfg)
	n.Connect(l2, s0, cfg)
	n.Connect(l2, s1, cfg)
	n.ComputeRoutes()

	// Pin L0 -> h2 to the S0 path: keep only the first uplink in the group.
	if ports := l0.RoutePorts(h2.ID()); len(ports) > 1 {
		l0.AddRoute(h2.ID(), ports[0])
	}
	return []*host.Host{h0, h1, h2}, []*device.Switch{l0, l1, l2}, []*device.Switch{s0, s1}
}

// FatTree builds a k-ary fat-tree (k even): (k/2)^2 core switches, k pods of
// k/2 aggregation and k/2 edge switches, and k/2 hosts per edge switch. It
// returns the network's hosts grouped by pod. Routes are installed
// arithmetically from the pod structure (see fatTreeRoutes); the §2.5
// sizing for k=64 is computed analytically by FatTreeDims.
func FatTree(n *Network, k, rateMbps int) [][]*host.Host {
	pods := FatTreeBuild(n, k, rateMbps)
	n.ComputeRoutes()
	return pods
}

// FatTreeBuild wires a k-ary fat-tree without computing routes, so
// benchmarks can time and account the build and route phases separately.
// Callers must invoke ComputeRoutes before running traffic.
func FatTreeBuild(n *Network, k, rateMbps int) [][]*host.Host {
	if k%2 != 0 {
		panic("topo: fat-tree arity must be even")
	}
	half := k / 2
	hosts, _ := FatTreeDims(k)
	numSwitches := 5 * half * half // (k/2)² cores + k pods × k switches
	n.EnsureSwitchBase(hosts)
	// 3·k³/4 bidirectional connects: k³/4 host links, k³/4 edge-agg links,
	// k³/4 agg-core links.
	n.Grow(hosts, numSwitches, 3*hosts)
	if s := n.Shards(); s > 1 {
		n.PlanPartition(FatTreePartition(k, s))
	}
	cfg := HostLink(rateMbps)

	cores := make([]*device.Switch, half*half)
	for i := range cores {
		cores[i] = n.AddSwitch(k)
	}
	pods := make([][]*host.Host, k)
	for p := 0; p < k; p++ {
		aggs := make([]*device.Switch, half)
		edges := make([]*device.Switch, half)
		for i := 0; i < half; i++ {
			aggs[i] = n.AddSwitch(k)
			edges[i] = n.AddSwitch(k)
		}
		for i, agg := range aggs {
			for _, e := range edges {
				n.Connect(agg, e, cfg)
			}
			for j := 0; j < half; j++ {
				n.Connect(agg, cores[i*half+j], cfg)
			}
		}
		for _, e := range edges {
			for j := 0; j < half; j++ {
				h := n.AddHost()
				n.Connect(h, e, cfg)
				pods[p] = append(pods[p], h)
			}
		}
	}
	n.ftK = k
	return pods
}

// FatTreeDims returns (hosts, coreLinks) for a k-ary fat-tree — the §2.5
// arithmetic: a k=64 fat-tree has 65536 servers and 65536 core links
// (hosts = k^3/4; core links = (k/2)^2 cores x k uplinks each = k^3/4).
func FatTreeDims(k int) (hosts, coreLinks int) {
	half := k / 2
	return k * half * half, k * half * half
}
