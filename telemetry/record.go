// Package telemetry is the streaming export layer of the simulator: a
// publisher → spooler → sink pipeline that carries typed application events
// (app.Stream values, per-hop TPP records, experiment series) out of the
// process without perturbing the simulation hot path.
//
// The design splits the cost asymmetrically. Publish is the hot side — it
// runs on the simulation goroutine, copies one fixed-size Record into a
// bounded ring spool, and allocates nothing; when the spool is full an
// explicit backpressure policy decides whether to block (flush inline),
// drop the oldest records, or drop the newest. Flush is the cold side — it
// drains the spool in batches to every attached Sink (NDJSON file, UDP
// datagram, in-memory buffer), either on demand, periodically on the
// simulation clock (FlushEvery), or at Close.
//
//	pipe := telemetry.NewPipeline(telemetry.Config{Spool: 4096})
//	pipe.Attach(telemetry.NewNDJSONSink(f))
//	cancel := telemetry.Export(monitor.SampleStream(), pipe,
//	        func(s microburst.Sample) telemetry.Record { ... })
//	...
//	pipe.Close()
//
// A pipeline with no sinks attached is free: Publish checks one bool and
// returns, so applications can wire exports unconditionally and pay only
// when somebody is listening. Drops are never silent — the pipeline counts
// them (Stats) and emits its own counters as a final self-telemetry record
// at Close.
//
// Subpackage telemetry/trace defines the versioned binary format for
// recorded TPP-annotated packet traces, the capture hooks that write it and
// the replay that re-injects such traces as a deterministic traffic source.
package telemetry

// Record is the pipeline's fixed-size unit of export: one telemetry event,
// flattened to value fields so spooling it is a plain copy with no heap
// traffic. Typed app streams are bridged to Records by the codec function
// given to Export.
//
// The fields are deliberately generic — At is the simulation timestamp in
// nanoseconds, App/Kind name the producer and event type, Node locates the
// event in the topology, Val carries the one scalar most events are about,
// and Aux holds up to three event-specific integers (ports, packet IDs,
// hop counts). Note is optional free text; producers on hot paths leave it
// empty and pass pre-interned constants for App and Kind so no per-record
// string is built.
type Record struct {
	At   int64   // simulation time, ns
	App  string  // producing application ("microburst", "rcp", ...)
	Kind string  // event type within the app ("sample", "rate", ...)
	Node uint64  // topology node the event concerns, 0 if n/a
	Val  float64 // primary scalar (occupancy fraction, Mb/s, ...)
	Aux  [3]uint64
	Note string // optional detail; empty on hot paths
}
