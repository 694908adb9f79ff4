// Package minions is a from-scratch Go reproduction of "Millions of Little
// Minions: Using Packets for Low Latency Network Programming and Visibility"
// (Jeyakumar, Alizadeh, Geng, Kim, Mazières — SIGCOMM 2014).
//
// The public API is layered across seven package groups, lowest first:
//
//   - minions/tpp — the tiny packet program itself: wire format and
//     instruction set, the typed Builder and exported switch-memory address
//     constants for constructing programs without string assembly, the
//     pseudo-assembly assembler/disassembler (both forms encode to identical
//     bytes), and the execution engine — a one-shot Exec plus the reusable,
//     allocation-free Executor for hot paths.
//
//   - minions/tppnet — the network facade: simulated TPP-capable switches
//     and end hosts, links, the TPP-CP control plane, and the paper's
//     topologies, created with functional options
//     (tppnet.NewNetwork(tppnet.WithSeed(1)), net.Dumbbell(6, 100)).
//     Drops, drop-notify mirrors, host transmits and executor give-ups are
//     all observed the same way, as typed stream subscriptions
//     (Switch.DropEvents/DropNotifies, Link.DropEvents, Host.Transmits,
//     Host.ExecFailures) that compose and cancel in any order.
//     tppnet.WithShards(n) runs the network as n topology shards under an
//     asynchronous conservative parallel discrete-event scheme — per-channel
//     lookahead, lock-free cross-shard mailboxes, persistent shard workers —
//     with results byte-identical to the single-engine simulation; each
//     engine schedules events on an amortized-O(1) hierarchical timing
//     wheel. Its subpackage minions/tppnet/app is the application
//     framework: the app.App contract every minion application implements
//     (Attach → Start → Stop → Close), the resource-tracking app.Base,
//     allocation-free app.Periodic probe timers, and typed app.Stream
//     telemetry. Writing your own minion is a supported, first-class use —
//     see Example_customApp in tppnet/app.
//
//   - minions/apps/* — the five §2 applications of the paper as public
//     packages on the app contract, each with the uniform New(cfg) →
//     Attach → Start shape: apps/rcp (RCP* rate control, §2.2), apps/conga
//     (CONGA* flowlet load balancing, §2.4), apps/microburst (per-packet
//     queue visibility, §2.1), apps/ndb (NetSight packet histories,
//     netwatch policy checking and loss localization, §2.3) and
//     apps/sketch (OpenSketch-style distributed measurement, §2.5).
//     Several applications run concurrently on one network under the
//     control plane's memory-grant isolation.
//
//   - minions/tppnet/faults — the deterministic fault-injection plane,
//     sitting between the network facade and the applications: seedable
//     link flaps (exponential MTTF/MTTR), Bernoulli and Gilbert-Elliott
//     packet loss, TPP-memory corruption, serialization jitter, switch
//     halt/restart and fixed-time scripted events, armed through
//     tppnet.WithFaults(plan) and injected at the link transmit path and
//     switch ingress behind nil checks that leave the no-fault hot path
//     allocation-free. Identical (topology, workload, plan) tuples replay
//     byte-identically across runs and shard counts; the apps layer above
//     is built to survive it (CONGA* dead-path reroute, RCP* missed-round
//     rate decay, host executor retry), and faults.Export/ExportDrops make
//     chaos runs observable through the telemetry layer below.
//     testbed.RunChaos is the ready-made scenario.
//
//   - minions/telemetry — the export layer: a bounded, allocation-free
//     record pipeline (publisher → spool → sink) with NDJSON, UDP-datagram
//     and in-memory sinks and Block/DropOldest/DropNewest backpressure
//     policies; telemetry.Export bridges any typed app.Stream into it, and
//     each apps/* package ships a canonical record encoder. Its subpackage
//     minions/telemetry/trace is the versioned binary packet-trace format:
//     trace.Start subscribes to every host's Transmits stream, and
//     trace.Replay re-injects a captured trace into a rebuilt topology with
//     byte-identical results. cmd/tppdump decodes, filters and summarizes
//     trace files.
//
//   - minions/workload — the scriptable traffic engine that feeds all of
//     the above: a declarative, seedable workload.Spec (heavy-tailed
//     flow-size distributions with the empirical web-search/data-mining
//     CDFs, lognormal and bounded-Pareto families; elephant/mice message
//     mixes; partition-aggregate incast; ON/OFF bursty sources;
//     token-bucket pacing) compiled by Spec.Attach into resident,
//     allocation-free simulator handlers. Sampling is O(1) inverse-CDF /
//     alias tables; the compiled runner pre-commits pool, queue-ring and
//     TPP-buffer headroom so warmed runs hold 0 allocs/pkt-hop, and its
//     Fingerprint is byte-identical across shard counts.
//
//   - minions/testbed — the reproduction harness on top of all of the
//     above: one runner per table/figure of the evaluation, parameterized
//     by a single SimOpts option struct (seed, shards, fault plan), with
//     trace-captured and replayed variants of the Figure 2 and Figure 4
//     runners, a telemetry-export hook on the fat-tree scale harness,
//     canned workload specs (WorkloadHeavyTail, WorkloadIncastFatTree)
//     accepted by ScaleConfig/ChaosConfig, and workload-axis reruns of the
//     paper apps (RunFig1Workload, RunRCPWorkload).
//
// cmd/experiments regenerates every table and figure, paper-style; run
//
//	go run ./cmd/experiments -run all
//
// (or -run <id> for one of them). EXPERIMENTS.md
// records paper-vs-measured values per figure and table, plus the
// performance, parallel-scaling, scheduler and application-layer notes of
// later PRs.
package minions
