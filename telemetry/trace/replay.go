package trace

import (
	"errors"
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"

	"minions/internal/core"
	"minions/internal/host"
	"minions/internal/link"
	"minions/internal/sim"
)

// ErrTopologyMismatch reports a trace that cannot be replayed into the given
// network: a record names a source or destination node the replay topology
// does not have. Replay errors wrap it, so callers distinguish "wrong
// topology" from I/O or decode failures with errors.Is.
var ErrTopologyMismatch = errors.New("trace does not match replay topology")

// ReplayStats tallies what a replay injected. Counters are atomic because
// sharded replays inject from one goroutine per shard; read them after (or
// during) the run with the accessor methods.
type ReplayStats struct {
	packets    atomic.Uint64
	bytes      atomic.Uint64
	standalone atomic.Uint64

	// Standalone-probe wire bytes per TPP application ID — the figure the
	// original run's apps derived probe overhead from (e.g. CONGA's
	// ProbeMbps), so a replay reproduces those numbers without the apps
	// running. Probes are control-plane rare, so a mutex-guarded map is
	// fine here where the per-packet counters above are not.
	mu            sync.Mutex
	probeBytesByA map[uint16]uint64
}

// Packets returns the number of packets injected so far.
func (s *ReplayStats) Packets() uint64 { return s.packets.Load() }

// Bytes returns the wire bytes injected so far.
func (s *ReplayStats) Bytes() uint64 { return s.bytes.Load() }

// Standalone returns the number of standalone probes injected so far.
func (s *ReplayStats) Standalone() uint64 { return s.standalone.Load() }

// StandaloneBytes returns the standalone-probe wire bytes injected for one
// TPP application ID.
func (s *ReplayStats) StandaloneBytes(appID uint16) uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.probeBytesByA[appID]
}

// TotalStandaloneBytes returns the standalone-probe wire bytes injected
// across all TPP application IDs. Useful when the replaying caller does not
// know which app IDs the capturing run had registered.
func (s *ReplayStats) TotalStandaloneBytes() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var total uint64
	for _, b := range s.probeBytesByA {
		total += b
	}
	return total
}

// replaySender re-injects recorded transmits, one resident sim.Handler per
// engine: each firing injects exactly one record and schedules the next at
// its recorded timestamp, so replay adds no per-packet closures. On a
// single-shard simulation one sender carries the whole trace in capture
// order; under sharding every source host gets its own sender on its own
// shard engine (hs[i] is the source of recs[i] either way).
type replaySender struct {
	hs    []*host.Host
	eng   *sim.Engine
	recs  []Rec
	stats *ReplayStats
}

// Handle implements sim.Handler: inject record idx, arm record idx+1.
func (r *replaySender) Handle(idx uint64) {
	r.inject(&r.recs[idx], r.hs[idx])
	if next := idx + 1; next < uint64(len(r.recs)) {
		r.eng.Schedule(sim.Time(r.recs[next].At), r, next)
	}
}

func (r *replaySender) inject(rec *Rec, h *host.Host) {
	p := h.NewPacket(link.NodeID(rec.Dst), rec.SrcPort, rec.DstPort, rec.Proto, int(rec.Size)-len(rec.TPP))
	p.PathTag = rec.PathTag
	p.TTL = rec.TTL
	p.Seq = rec.Seq
	p.Ack = rec.Ack
	p.TFlags = rec.TFlags
	p.Standalone = rec.Standalone()
	if len(rec.TPP) > 0 {
		buf := p.SectionBuf(len(rec.TPP))
		copy(buf, rec.TPP)
		p.TPP = core.Section(buf)
		p.Size += len(rec.TPP)
	}
	r.stats.packets.Add(1)
	r.stats.bytes.Add(uint64(p.Size))
	if p.Standalone && p.TPP != nil {
		r.stats.standalone.Add(1)
		appID := p.TPP.AppID()
		r.stats.mu.Lock()
		r.stats.probeBytesByA[appID] += uint64(p.Size)
		r.stats.mu.Unlock()
	}
	h.Inject(p)
}

// Replay schedules every record of a recorded trace for re-injection at its
// recorded timestamp, on the engine of its recorded source host. Hosts are
// looked up by node ID in hosts; a record whose source is not a replay host
// or whose destination is neither a replay host nor a listed extra
// destination is an error wrapping ErrTopologyMismatch (the trace belongs
// to a different topology). Destinations need not be hosts — debugging
// probes target switches directly — so callers replaying such traces pass
// the topology's switch NodeIDs as extraDests via ReplayTo.
//
// The returned stats are filled in as the simulation runs. Replay injects
// below the shim (no filter interposition), so the replaying hosts need no
// filters, apps or transports: the network — switches, links, TPP execution
// along each path, standalone echoes at destinations — does the rest, which
// is what makes a replayed run reproduce the original packet for packet.
func Replay(hosts []*host.Host, recs []Rec) (*ReplayStats, error) {
	return ReplayTo(hosts, nil, recs)
}

// ReplayTo is Replay with extra valid destinations: node IDs (typically the
// topology's switches) that records may target even though no replay host
// answers to them.
func ReplayTo(hosts []*host.Host, extraDests []link.NodeID, recs []Rec) (*ReplayStats, error) {
	byID := make(map[link.NodeID]*host.Host, len(hosts))
	sharded := false
	for _, h := range hosts {
		byID[h.ID()] = h
		if h.Engine() != hosts[0].Engine() {
			sharded = true
		}
	}
	destOK := make(map[link.NodeID]bool, len(extraDests))
	for _, id := range extraDests {
		destOK[id] = true
	}
	for _, rec := range recs {
		if byID[link.NodeID(rec.Src)] == nil {
			return nil, fmt.Errorf("trace: record from node %d, which is not a replay host: %w", rec.Src, ErrTopologyMismatch)
		}
		if dst := link.NodeID(rec.Dst); byID[dst] == nil && !destOK[dst] {
			return nil, fmt.Errorf("trace: record to node %d, which is neither a replay host nor a listed destination: %w", rec.Dst, ErrTopologyMismatch)
		}
	}
	stats := &ReplayStats{probeBytesByA: make(map[uint16]uint64)}
	if len(recs) == 0 {
		return stats, nil
	}
	if !sharded {
		// Single shard: one sender walks the whole trace in capture order,
		// so same-timestamp sends from different hosts re-enter the engine
		// in exactly the order the capturing run emitted them. Per-host
		// senders would re-resolve those ties by scheduling order, and at a
		// drop-tail queue during phase-locked ramp-up that decides which
		// flow's packet is the one dropped.
		rs := append([]Rec(nil), recs...)
		sort.SliceStable(rs, func(i, j int) bool { return rs[i].At < rs[j].At })
		hs := make([]*host.Host, len(rs))
		for i := range rs {
			hs[i] = byID[link.NodeID(rs[i].Src)]
		}
		s := &replaySender{hs: hs, eng: hs[0].Engine(), recs: rs, stats: stats}
		s.eng.Schedule(sim.Time(rs[0].At), s, 0)
		return stats, nil
	}
	perSrc := make(map[link.NodeID][]Rec)
	for _, rec := range recs {
		id := link.NodeID(rec.Src)
		perSrc[id] = append(perSrc[id], rec)
	}
	for id, rs := range perSrc {
		// Capture writes in send order, but be robust to merged traces.
		sort.SliceStable(rs, func(i, j int) bool { return rs[i].At < rs[j].At })
		h := byID[id]
		hs := make([]*host.Host, len(rs))
		for i := range hs {
			hs[i] = h
		}
		s := &replaySender{hs: hs, eng: h.Engine(), recs: rs, stats: stats}
		s.eng.Schedule(sim.Time(rs[0].At), s, 0)
	}
	return stats, nil
}

// ReplayFrom decodes a whole trace stream and schedules it via Replay.
func ReplayFrom(hosts []*host.Host, r io.Reader) (*ReplayStats, error) {
	return ReplayFromTo(hosts, nil, r)
}

// ReplayFromTo decodes a whole trace stream and schedules it via ReplayTo.
func ReplayFromTo(hosts []*host.Host, extraDests []link.NodeID, r io.Reader) (*ReplayStats, error) {
	recs, err := ReadAll(r)
	if err != nil {
		return nil, err
	}
	return ReplayTo(hosts, extraDests, recs)
}
