package workload

import "minions/internal/sim"

// AllToAllConfig parameterizes the paper's all-to-all workload: every host
// Poisson-sends fixed-size messages to uniform-random peers as
// back-to-back bursts — the §2.1 microburst traffic.
type AllToAllConfig struct {
	MsgBytes int     // bytes per message
	Load     float64 // fraction of each host NIC's line rate
	PktSize  int     // max payload per packet (default 1440)
	DstPort  uint16  // sink port (default 9000)
	Duration sim.Time
	Seed     int64
}

// AllToAll returns the canned all-to-all Spec. Its per-host RNG streams and
// draw order are what the Fig1/Fig2 golden tables were captured under, so
// they are pinned byte for byte.
func AllToAll(cfg AllToAllConfig) Spec {
	load := cfg.Load
	if cfg.Duration <= 0 {
		// A zero duration stops senders at t=0, i.e. no traffic at all.
		// Compile no senders so Run() still terminates.
		load = 0
	}
	return Spec{Seed: cfg.Seed, Groups: []Group{{
		Name: "all-to-all",
		Stop: cfg.Duration,
		Messages: &MessageSpec{
			Classes: []Class{{Sizes: Fixed(cfg.MsgBytes)}},
			Load:    load,
			PktSize: cfg.PktSize,
			DstPort: cfg.DstPort,
		},
	}}}
}

// UniformRandomConfig parameterizes the uniform-random-flows workload:
// long-lived CBR UDP flows between uniform-random host pairs.
type UniformRandomConfig struct {
	Flows    int
	RateBps  int64
	PktSize  int    // wire bytes per packet (default 1500)
	DstPort  uint16 // sink port (default 9100)
	Seed     int64
	MaxStart sim.Time // start jitter window (default 1 ms)
}

// UniformRandom returns the canned uniform-random-flows Spec. Its draw order
// (one shared pair RNG; sinks, then flows, in creation order) is what the
// ScaleResult golden fingerprints were captured under.
func UniformRandom(cfg UniformRandomConfig) Spec {
	return Spec{Seed: cfg.Seed, Groups: []Group{{
		Name: "uniform-random",
		Flows: &FlowSpec{
			Flows:    cfg.Flows,
			RateBps:  cfg.RateBps,
			PktSize:  cfg.PktSize,
			DstPort:  cfg.DstPort,
			MaxStart: cfg.MaxStart,
		},
	}}}
}
