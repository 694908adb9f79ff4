package sim

// Shard-sync equivalence guards: the asynchronous per-channel runtime,
// sequential and parallel, must produce the simulation the global-epoch
// barrier oracle (oracle_test.go) does. Random sharded scenarios — random
// channel graphs with heterogeneous delays, cross-shard bounce chains,
// same-instant collisions, and a mid-run shard Stop — are replayed under
// each and the per-shard delivery traces compared. CI runs the corpus under -race,
// which additionally exercises the SPSC mailboxes and clock publishes
// under the real memory model.

import (
	"fmt"
	"math/rand"
	"testing"
)

// shardSink records deliveries into its shard's trace and optionally
// bounces a reply over an outgoing channel of its shard. The payload packs
// (hops<<32 | id); each bounce decrements hops, so chains terminate.
type shardSink struct {
	eng      *Engine
	shard    int
	log      *[]string
	back     *Channel
	backSink *shardSink
}

func (s *shardSink) Handle(arg uint64) {
	*s.log = append(*s.log, fmt.Sprintf("s%d recv %d @%d", s.shard, arg, s.eng.Now()))
	if hops := arg >> 32; hops > 0 && s.back != nil {
		s.back.Send(s.eng.Now(), s.backSink, (hops-1)<<32|(arg&0xffffffff)+1)
	}
}

// runShardScript builds one deterministic sharded scenario from the fuzz
// inputs and returns the concatenated per-shard delivery traces plus the
// total event count.
func runShardScript(mode syncImpl, parallel bool, seed int64, shards, events int, stopShard int) ([]string, int) {
	r := rand.New(rand.NewSource(seed * 7919))
	engines := make([]*Engine, shards)
	for i := range engines {
		engines[i] = New(seed + int64(i))
	}
	g := NewShardGroup(engines)
	g.Parallel = parallel

	logs := make([][]string, shards)
	sinks := make([]*shardSink, shards)
	for i := range sinks {
		sinks[i] = &shardSink{eng: engines[i], shard: i, log: &logs[i]}
	}
	// Random directed channel graph with heterogeneous delays; (0,1) always
	// exists so the group is never channel-free.
	var chans []*Channel
	outOf := make([][]*Channel, shards)
	addCh := func(src, dst int, delay Time) {
		c := g.AddChannel(src, dst, delay)
		chans = append(chans, c)
		outOf[src] = append(outOf[src], c)
	}
	addCh(0, 1%shards, 1+Time(r.Int63n(60)))
	for src := 0; src < shards; src++ {
		for dst := 0; dst < shards; dst++ {
			if src != dst && r.Intn(3) == 0 {
				addCh(src, dst, 1+Time(r.Int63n(60)))
			}
		}
	}
	// Give every shard with an outgoing channel a bounce route.
	for i, s := range sinks {
		if len(outOf[i]) > 0 {
			c := outOf[i][r.Intn(len(outOf[i]))]
			s.back = c
			s.backSink = sinks[c.dst]
		}
	}

	// Seed traffic: cross-shard sends (some with bounce hops) and local
	// marker events, clustered in a small time range to force collisions.
	id := uint64(0)
	for i := 0; i < events; i++ {
		src := r.Intn(shards)
		e := engines[src]
		at := Time(r.Int63n(300))
		if len(outOf[src]) > 0 && r.Intn(4) != 0 {
			c := outOf[src][r.Intn(len(outOf[src]))]
			sink := sinks[c.dst]
			payload := uint64(r.Intn(4))<<32 | id
			e.Schedule(at, HandlerFunc(func() { c.Send(e.Now(), sink, payload) }), 0)
		} else {
			shard, marker := src, id
			e.Schedule(at, HandlerFunc(func() {
				logs[shard] = append(logs[shard], fmt.Sprintf("s%d local %d @%d", shard, marker, e.Now()))
			}), 0)
		}
		id++
	}
	if stopShard >= 0 {
		s := stopShard % shards
		engines[s].Schedule(Time(50+r.Int63n(200)), HandlerFunc(engines[s].Stop), 0)
	}

	n := 0
	deadline := Time(0)
	for seg := 0; seg < 3; seg++ {
		deadline += Time(60 + r.Int63n(200))
		n += mode.runUntil(g, deadline)
	}
	n += mode.run(g) // drain remaining bounce chains

	var all []string
	for i, l := range logs {
		all = append(all, fmt.Sprintf("-- shard %d --", i))
		all = append(all, l...)
	}
	return all, n
}

// parallelReps is how many times checkShardEquivalence repeats the parallel
// run of one scenario.
const parallelReps = 8

// checkShardEquivalence replays one scenario on the epoch oracle and on the
// runtime, sequential and parallel, and requires identical traces and event
// counts everywhere.
func checkShardEquivalence(t *testing.T, seed int64, shards, events, stopShard int) {
	t.Helper()
	refTrace, refN := runShardScript(syncOracle, false, seed, shards, events, stopShard)
	// One sequential run, then several parallel ones: goroutine interleaving
	// differs from run to run, and an ordering bug in step (say, draining
	// before the clock snapshot) only shows under some of them.
	for rep := 0; rep <= parallelReps; rep++ {
		parallel := rep > 0
		name := fmt.Sprintf("runtime(parallel=%v)", parallel)
		trace, n := runShardScript(syncRuntime, parallel, seed, shards, events, stopShard)
		if n != refN {
			t.Fatalf("seed=%d shards=%d stop=%d: oracle processed %d events, %s processed %d",
				seed, shards, stopShard, refN, name, n)
		}
		for i := range refTrace {
			if i >= len(trace) || trace[i] != refTrace[i] {
				got := "<missing>"
				if i < len(trace) {
					got = trace[i]
				}
				t.Fatalf("seed=%d shards=%d stop=%d: %s diverges from the oracle at line %d: %q vs %q",
					seed, shards, stopShard, name, i, got, refTrace[i])
			}
		}
		if len(trace) != len(refTrace) {
			t.Fatalf("seed=%d shards=%d stop=%d: %s trace has %d lines, the oracle's %d",
				seed, shards, stopShard, name, len(trace), len(refTrace))
		}
	}
}

// TestShardSyncEquivalence covers a spread of seeds deterministically.
func TestShardSyncEquivalence(t *testing.T) {
	for seed := int64(1); seed <= 25; seed++ {
		checkShardEquivalence(t, seed, 2+int(seed)%3, 40, -1)
	}
}

// TestShardSyncEquivalenceStopped repeats with one shard stopping mid-run.
func TestShardSyncEquivalenceStopped(t *testing.T) {
	for seed := int64(200); seed < 215; seed++ {
		checkShardEquivalence(t, seed, 2+int(seed)%3, 40, int(seed)%4)
	}
}

// FuzzShardSyncEquivalence lets the fuzzer pick the scenario shape; the
// corpus plays back as unit tests in normal `go test` runs.
func FuzzShardSyncEquivalence(f *testing.F) {
	f.Add(int64(1), uint8(2), uint8(30), int8(-1))
	f.Add(int64(9), uint8(4), uint8(60), int8(1))
	f.Add(int64(42), uint8(3), uint8(10), int8(0))
	f.Fuzz(func(t *testing.T, seed int64, shards, events uint8, stopShard int8) {
		s := int(shards)%4 + 2 // 2..5 shards
		n := int(events)%80 + 5
		stop := int(stopShard)
		if stop >= 0 {
			stop %= s
		} else {
			stop = -1
		}
		checkShardEquivalence(t, seed, s, n, stop)
	})
}
