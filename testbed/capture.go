package testbed

// Trace capture and replay for the paper experiments (§2.2 Figure 2 and
// §2.4 Figure 4). A captured run records every host transmit — data packets
// with their attached TPPs, RCP* control packets, CONGA* standalone probes —
// into the telemetry/trace binary format. A replay run rebuilds the same
// topology and sinks but NO applications or traffic sources, re-injects the
// recorded packets at their recorded timestamps, and runs the identical
// sampling loops. Because switch forwarding is a pure function of packet
// contents (ECMP hashes the flow key and path tag; TPP execution reads
// switch state that only the replayed packets perturb), the replayed tables
// are byte-identical to the original run's.
//
// Capture and replay require a single-shard run: the trace writer is a
// single stream and record order must match virtual time order.

import (
	"errors"
	"io"
	"math"

	"minions/apps/conga"
	"minions/apps/rcp"
	"minions/internal/link"
	"minions/internal/transport"
	"minions/telemetry/trace"
)

// ErrShardedCapture reports a capture or replay request on a sharded run.
// Trace files are a single time-ordered stream, so both sides are restricted
// to one shard.
var ErrShardedCapture = errors.New("testbed: trace capture and replay require a single-shard run")

// switchDests lists the topology's switch NodeIDs so replays accept
// switch-targeted records (debugging probes address switches directly);
// trace.ReplayTo rejects any other unknown destination as a topology
// mismatch.
func switchDests(n *Network) []link.NodeID {
	ids := make([]link.NodeID, len(n.Switches))
	for i, sw := range n.Switches {
		ids[i] = sw.NodeID()
	}
	return ids
}

// RunFig2Captured is RunFig2 with every host transmit of each panel
// recorded to the given writers (binary trace format, see telemetry/trace).
// Either writer may be nil to skip capturing that panel.
func RunFig2Captured(duration Time, o SimOpts, maxmin, prop io.Writer) (*Fig2Result, error) {
	return runFig2(duration, o, maxmin, prop, nil, nil)
}

// RunFig2Replay reproduces a captured Figure 2 run from the panel traces:
// same topology and sinks, no RCP* system or flows — the recorded packets
// carry the experiment. The returned result renders byte-identically to the
// capturing run's.
func RunFig2Replay(duration Time, o SimOpts, maxmin, prop io.Reader) (*Fig2Result, error) {
	return runFig2(duration, o, nil, nil, maxmin, prop)
}

func runFig2(duration Time, o SimOpts, capMM, capPr io.Writer, repMM, repPr io.Reader) (*Fig2Result, error) {
	res := &Fig2Result{}
	var err error
	if res.MaxMin, res.FinalMaxMin, err = runFig2Panel(duration, o, math.Inf(1), capMM, repMM); err != nil {
		return nil, err
	}
	if res.Proportional, res.FinalProp, err = runFig2Panel(duration, o, 1, capPr, repPr); err != nil {
		return nil, err
	}
	return res, nil
}

// runFig2Panel runs one Figure 2 panel. With repR nil it is a live run (RCP*
// system and flows), optionally captured to capW; with repR set it rebuilds
// only the topology and sinks and re-injects the trace.
func runFig2Panel(duration Time, o SimOpts, alpha float64, capW io.Writer, repR io.Reader) ([]Fig2Point, [3]float64, error) {
	var zero [3]float64
	if (capW != nil || repR != nil) && o.Shards > 1 {
		return nil, zero, ErrShardedCapture
	}
	n := NewNet(SimOpts{Seed: o.Seed + 5, Shards: o.Shards})
	hosts, _ := n.Chain(100)
	var sinks [3]*transport.Sink
	pairs := [3][2]int{{0, 3}, {1, 4}, {2, 5}}
	var sys *rcp.System
	var tc *trace.Capture
	if repR == nil {
		// Taps go in before the RCP* system exists: Start paths may send
		// control packets synchronously, and a trace that misses them
		// would not replay to the same tables.
		if capW != nil {
			var err error
			if tc, err = trace.Start(capW, n.Hosts...); err != nil {
				return nil, zero, err
			}
		}
		sys = rcp.New(rcp.Config{Alpha: alpha, CapacityMbps: 100})
		if err := sys.Attach(n, nil); err != nil {
			return nil, zero, err
		}
		for i, p := range pairs {
			port := uint16(7001 + i)
			sinks[i] = transport.NewSink(n.Hosts[p[1]], port, link.ProtoUDP)
			udp := transport.NewUDPFlow(n.Hosts[p[0]], hosts[p[1]].ID(), port, port, 1500)
			sys.NewFlow(n.Hosts[p[0]], hosts[p[1]].ID(), udp)
		}
		if err := sys.Start(); err != nil {
			return nil, zero, err
		}
	} else {
		for i, p := range pairs {
			sinks[i] = transport.NewSink(n.Hosts[p[1]], uint16(7001+i), link.ProtoUDP)
		}
		if _, err := trace.ReplayFromTo(n.Hosts, switchDests(n), repR); err != nil {
			return nil, zero, err
		}
	}
	var series []Fig2Point
	var prev [3]uint64
	step := 250 * Millisecond
	for at := step; at <= duration; at += step {
		n.RunUntil(at)
		var pt Fig2Point
		pt.T = at.Seconds()
		for i, s := range sinks {
			pt.Mbps[i] = float64(s.Bytes-prev[i]) * 8 / step.Seconds() / 1e6
			prev[i] = s.Bytes
		}
		series = append(series, pt)
	}
	if sys != nil {
		if err := sys.Stop(); err != nil {
			return nil, zero, err
		}
	}
	if tc != nil {
		if err := tc.Close(); err != nil {
			return nil, zero, err
		}
	}
	final := series[len(series)-1].Mbps
	return series, final, nil
}

// RunFig4Captured is RunFig4 with every host transmit of each scheme's
// run recorded to the given writers. Either writer may be nil to skip
// capturing that scheme.
func RunFig4Captured(duration Time, o SimOpts, ecmp, cng io.Writer) (*Fig4Result, error) {
	return runFig4(duration, o, ecmp, cng, nil, nil)
}

// RunFig4Replay reproduces a captured Figure 4 run from the scheme traces:
// same leaf-spine and sinks, no flows or balancer. The CONGA* probe overhead
// is recovered from the replayed standalone-probe bytes, so the returned
// result — probe row included — renders byte-identically to the capturing
// run's.
func RunFig4Replay(duration Time, o SimOpts, ecmp, cng io.Reader) (*Fig4Result, error) {
	return runFig4(duration, o, nil, nil, ecmp, cng)
}

func runFig4(duration Time, o SimOpts, capE, capC io.Writer, repE, repC io.Reader) (*Fig4Result, error) {
	var res Fig4Result
	var err error
	if res.ECMP, err = runFig4Cell(duration, o, false, capE, repE); err != nil {
		return nil, err
	}
	if res.Conga, err = runFig4Cell(duration, o, true, capC, repC); err != nil {
		return nil, err
	}
	return &res, nil
}

// runFig4Cell runs one Figure 4 scheme. With repR nil it is a live run
// (flows, and the CONGA* balancer when useConga), optionally captured to
// capW; with repR set it rebuilds only the leaf-spine and sinks and
// re-injects the trace.
func runFig4Cell(duration Time, o SimOpts, useConga bool, capW io.Writer, repR io.Reader) (Fig4Cell, error) {
	if (capW != nil || repR != nil) && o.Shards > 1 {
		return Fig4Cell{}, ErrShardedCapture
	}
	n := NewNet(SimOpts{Seed: o.Seed + 13, Shards: o.Shards})
	hosts, _, _ := n.LeafSpine(100)
	h0, h1, h2 := hosts[0], hosts[1], hosts[2]
	sink0 := transport.NewSink(h2, 7100, link.ProtoUDP)
	sink1 := transport.NewSink(h2, 7200, link.ProtoUDP)
	var f0 *transport.UDPFlow
	var subs []*transport.UDPFlow
	var bal *conga.Balancer
	var tc *trace.Capture
	var replayStats *trace.ReplayStats
	if repR == nil {
		// Taps first: the balancer's Start sends its tag-discovery probes
		// synchronously, and a trace missing them would replay to a lower
		// probe-overhead figure than the live run reports.
		if capW != nil {
			var err error
			if tc, err = trace.Start(capW, n.Hosts...); err != nil {
				return Fig4Cell{}, err
			}
		}
		f0 = transport.NewUDPFlow(h0, h2.ID(), 7100, 7100, 1500)
		f0.SetRateBps(50_000_000)
		for i := 0; i < 8; i++ {
			f := transport.NewUDPFlow(h1, h2.ID(), uint16(7200+i), 7200, 1500)
			f.SetRateBps(15_000_000)
			subs = append(subs, f)
		}
		if useConga {
			bal = conga.New(conga.Config{Host: h1, Dst: h2.ID(), Agg: conga.AggMax})
			if err := bal.Attach(n, nil); err != nil {
				return Fig4Cell{}, err
			}
			if err := bal.Start(); err != nil {
				return Fig4Cell{}, err
			}
			tg := bal.Tagger()
			for _, f := range subs {
				f.Tagger = tg
			}
		}
		f0.Start()
		for _, f := range subs {
			f.Start()
		}
	} else {
		var err error
		if replayStats, err = trace.ReplayFromTo(n.Hosts, switchDests(n), repR); err != nil {
			return Fig4Cell{}, err
		}
	}
	warm := duration - Second
	if warm < Second {
		warm = duration / 2
	}
	n.RunUntil(warm)
	b0, b1 := sink0.Bytes, sink1.Bytes
	maxPm := uint32(0)
	steps := 10
	stepDur := (duration - warm) / Time(steps)
	for i := 0; i < steps; i++ {
		n.RunUntil(warm + Time(i+1)*stepDur)
		for _, l := range n.Links() {
			if l.RateMbps() != 100 {
				continue
			}
			if pm := l.UtilPermille(); pm > maxPm {
				maxPm = pm
			}
		}
	}
	window := (duration - warm).Seconds()
	cell := Fig4Cell{
		Thr0:        float64(sink0.Bytes-b0) * 8 / window / 1e6,
		Thr1:        float64(sink1.Bytes-b1) * 8 / window / 1e6,
		MaxUtilPerm: float64(maxPm),
	}
	if bal != nil {
		cell.ProbeMbps = float64(bal.ProbeBytes) * 8 / n.Now().Seconds() / 1e6
		bal.Stop()
	}
	if useConga && replayStats != nil {
		// The balancer sends probes with MaxAttempts 1, so the replayed
		// standalone bytes equal the original run's ProbeBytes exactly.
		cell.ProbeMbps = float64(replayStats.TotalStandaloneBytes()) * 8 / n.Now().Seconds() / 1e6
	}
	if f0 != nil {
		f0.Stop()
		for _, f := range subs {
			f.Stop()
		}
	}
	if tc != nil {
		if err := tc.Close(); err != nil {
			return Fig4Cell{}, err
		}
	}
	return cell, nil
}
