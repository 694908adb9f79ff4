package testbed

// Workload-axis runners: the paper's applications re-run under the
// scriptable workloads of package minions/workload instead of the paper's
// single all-to-all pattern — microburst detection under partition-
// aggregate incast, RCP* fairness under heavy-tailed background load. The
// canned specs here are shared by the zero-allocation table test
// (TestScaleRunsZeroAllocs), the determinism guard tests and CI's
// workload-smoke step, so every consumer pins the same bytes.

import (
	"fmt"
	"math"
	"strings"

	"minions/apps/microburst"
	"minions/apps/rcp"
	"minions/internal/link"
	"minions/internal/transport"
	"minions/workload"
)

// WorkloadHeavyTail is the canned elephant/mice mix: 90% bursty web-search
// mice (clamped to short-flow sizes), 10% token-bucket-paced data-mining
// elephants. Load is the per-host offered fraction of NIC line rate.
func WorkloadHeavyTail(load float64) *workload.Spec {
	return &workload.Spec{Groups: []workload.Group{{
		Name: "heavy-tail",
		Messages: &workload.MessageSpec{
			Classes: []workload.Class{
				{Name: "mice", Weight: 0.9,
					Sizes: workload.WebSearch().Clamped(500, 100_000)},
				{Name: "elephants", Weight: 0.1,
					Sizes:   workload.DataMining().Clamped(500_000, 20_000_000),
					RateBps: 200_000_000},
			},
			Load: load,
		},
	}}}
}

// WorkloadIncastFatTree is the canned partition-aggregate spec for a k-ary
// fat-tree: the first host of every pod aggregates, querying one pod's
// worth of workers ((k/2)² fan-in) every 2 ms with 500 µs round jitter and
// 20 kB responses — the synchronized burst regime of §2.1 at fabric scale.
func WorkloadIncastFatTree(k int) *workload.Spec {
	hostsPerPod := (k / 2) * (k / 2)
	aggs := make([]int, k)
	for i := range aggs {
		aggs[i] = i * hostsPerPod
	}
	return &workload.Spec{Groups: []workload.Group{{
		Name: "incast",
		Incast: &workload.IncastSpec{
			Aggregators:   aggs,
			FanIn:         hostsPerPod,
			RequestBytes:  64,
			ResponseBytes: 20_000,
			Period:        2 * Millisecond,
			Jitter:        500 * Microsecond,
		},
	}}}
}

// ---------------------------------------------------------------------------
// Microburst detection (§2.1 / Figure 1) under an arbitrary workload.

// RunFig1Workload is RunFig1 with the all-to-all generator replaced by a
// workload.Spec: the same dumbbell, the same microburst monitor on every
// UDP packet, traffic from the spec. A zero Spec.Seed inherits cfg.Seed+11
// (the slot the legacy all-to-all seed used).
func RunFig1Workload(spec *workload.Spec, cfg Fig1Config) (*Fig1Result, error) {
	if cfg.Hosts == 0 {
		cfg.Hosts = 6
	}
	if cfg.RateMbps == 0 {
		cfg.RateMbps = 100
	}
	if cfg.Duration == 0 {
		cfg.Duration = 2 * Second
	}
	n := NewNet(SimOpts{Seed: cfg.Seed + 3, Shards: cfg.Shards})
	hosts, _, _ := n.Dumbbell(cfg.Hosts, cfg.RateMbps)
	mon := microburst.New(microburst.Config{
		Filter: FilterSpec{Proto: link.ProtoUDP},
		Hosts:  hosts,
	})
	if err := mon.Attach(n, nil); err != nil {
		return nil, err
	}
	sp := *spec
	if sp.Seed == 0 {
		sp.Seed = cfg.Seed + 11
	}
	if _, err := sp.Attach(hosts); err != nil {
		return nil, err
	}
	n.RunUntil(cfg.Duration + 100*Millisecond)
	return fig1Summarize(mon), nil
}

// ---------------------------------------------------------------------------
// RCP* fairness (§2.2 / Figure 2 max-min panel) under background load.

// RCPWorkloadResult compares RCP*'s max-min allocation on the Figure 2
// chain with and without a background workload competing for the fabric.
type RCPWorkloadResult struct {
	// Clean and Loaded are the final Mb/s of flows a (2 links), b, c —
	// Clean is the Figure 2 max-min panel (paper: 50/50/50).
	Clean, Loaded [3]float64
	// BgDeliveredMB is how much background traffic the loaded run carried.
	BgDeliveredMB float64
	// BgFP is the background runner's deterministic counter line.
	BgFP string
}

// RunRCPWorkload runs the Figure 2 max-min experiment twice — clean, then
// with bg attached to the chain's six hosts — and reports both final
// allocations. A zero bg.Seed inherits o.Seed+29.
func RunRCPWorkload(duration Time, o SimOpts, bg *workload.Spec) (*RCPWorkloadResult, error) {
	res := &RCPWorkloadResult{}
	for pass := 0; pass < 2; pass++ {
		n := NewNet(SimOpts{Seed: o.Seed + 5, Shards: o.Shards})
		hosts, _ := n.Chain(100)
		sys := rcp.New(rcp.Config{Alpha: math.Inf(1), CapacityMbps: 100})
		if err := sys.Attach(n, nil); err != nil {
			return nil, err
		}
		pairs := [3][2]int{{0, 3}, {1, 4}, {2, 5}}
		var sinks [3]*transport.Sink
		for i, p := range pairs {
			port := uint16(7001 + i)
			sinks[i] = transport.NewSink(n.Hosts[p[1]], port, link.ProtoUDP)
			udp := transport.NewUDPFlow(n.Hosts[p[0]], hosts[p[1]].ID(), port, port, 1500)
			sys.NewFlow(n.Hosts[p[0]], hosts[p[1]].ID(), udp)
		}
		if err := sys.Start(); err != nil {
			return nil, err
		}
		var wr *workload.Runner
		if pass == 1 {
			sp := *bg
			if sp.Seed == 0 {
				sp.Seed = o.Seed + 29
			}
			var err error
			if wr, err = sp.Attach(hosts); err != nil {
				return nil, err
			}
		}
		// Final rates over the last 250 ms window, like runFig2Panel.
		step := 250 * Millisecond
		var prev [3]uint64
		var final [3]float64
		for at := step; at <= duration; at += step {
			n.RunUntil(at)
			for i, s := range sinks {
				final[i] = float64(s.Bytes-prev[i]) * 8 / step.Seconds() / 1e6
				prev[i] = s.Bytes
			}
		}
		if err := sys.Stop(); err != nil {
			return nil, err
		}
		if pass == 0 {
			res.Clean = final
		} else {
			res.Loaded = final
			res.BgFP = wr.Fingerprint()
			var bgBytes uint64
			for _, s := range wr.Sinks {
				bgBytes += s.Bytes
			}
			res.BgDeliveredMB = float64(bgBytes) / 1e6
		}
	}
	return res, nil
}

// Table renders the comparison.
func (r *RCPWorkloadResult) Table() string {
	var b strings.Builder
	b.WriteString("RCP* max-min fairness under background workload (Figure 2 chain)\n")
	fmt.Fprintf(&b, "%-24s %8.1f %8.1f %8.1f   (paper: 50/50/50)\n",
		"clean final Mb/s", r.Clean[0], r.Clean[1], r.Clean[2])
	fmt.Fprintf(&b, "%-24s %8.1f %8.1f %8.1f   (+%.1f MB background)\n",
		"heavy-tail bg final", r.Loaded[0], r.Loaded[1], r.Loaded[2], r.BgDeliveredMB)
	return b.String()
}
