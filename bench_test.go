// Benchmarks regenerating every table and figure of the paper's evaluation.
// Each benchmark runs the corresponding experiment from minions/testbed and
// reports its headline numbers as custom metrics, so `go test -bench=.`
// doubles as the reproduction harness. EXPERIMENTS.md records paper-vs-
// measured values for each one. The two BenchmarkEndToEndHop cases at the end
// are the exception: they time the simulator's own forward path, one packet
// at a time. (Whole-fabric timing is bench/'s tppbench, not a go benchmark.)
package minions_test

import (
	"testing"

	"minions/testbed"
)

// BenchmarkFig1Microburst regenerates Figure 1b: per-packet queue occupancy
// on the 6-host dumbbell at 30% all-to-all load.
func BenchmarkFig1Microburst(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := testbed.RunFig1(testbed.Fig1Config{
			Duration: 1 * testbed.Second,
			Seed:     int64(i),
		})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(float64(res.TotalSamples), "samples")
			b.ReportMetric(float64(res.MostlyEmptyQueues), "mostly-empty-queues")
			b.ReportMetric(float64(res.BurstQueues), "burst-queues")
			b.ReportMetric(float64(res.OverheadBytes), "tpp-bytes/pkt")
			b.Log("\n" + res.Table())
		}
	}
}

// BenchmarkFig2RCPFairness regenerates Figure 2: max-min vs proportional
// fairness under RCP*.
func BenchmarkFig2RCPFairness(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := testbed.RunFig2(6*testbed.Second, testbed.SimOpts{Seed: int64(i)})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(res.FinalMaxMin[0], "maxmin-a-Mbps")
			b.ReportMetric(res.FinalProp[0], "prop-a-Mbps")
			b.ReportMetric(res.FinalProp[1], "prop-b-Mbps")
			b.Log("\n" + res.Table())
		}
	}
}

// BenchmarkSec22ControlOverhead regenerates the §2.2 overhead comparison:
// RCP* TPP control bandwidth vs TCP ACK bandwidth as flows grow.
func BenchmarkSec22ControlOverhead(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := testbed.RunSec22([]int{3, 30, 99}, 3*testbed.Second, int64(i))
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(rows[0].RCPOverhead*100, "rcp-ovh-3flows-%")
			b.ReportMetric(rows[len(rows)-1].RCPOverhead*100, "rcp-ovh-99flows-%")
			b.ReportMetric(rows[0].TCPOverhead*100, "tcp-ovh-3flows-%")
			b.Log("\n" + testbed.Sec22Table(rows))
		}
	}
}

// BenchmarkSec23NetSightOverhead regenerates the §2.3 packet-history
// overhead accounting plus a live collection run.
func BenchmarkSec23NetSightOverhead(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := testbed.RunSec23()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(float64(res.Total), "bytes/pkt")
			b.ReportMetric(res.PctAt1000B, "ovh-%-at-1000B")
			b.Log("\n" + res.Table())
		}
	}
}

// BenchmarkFig4CongaVsECMP regenerates the Figure 4 comparison table.
func BenchmarkFig4CongaVsECMP(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := testbed.RunFig4(3*testbed.Second, testbed.SimOpts{Seed: int64(i)})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(res.ECMP.Thr1, "ecmp-thr120-Mbps")
			b.ReportMetric(res.Conga.Thr1, "conga-thr120-Mbps")
			b.ReportMetric(res.ECMP.MaxUtilPerm/10, "ecmp-maxutil-%")
			b.ReportMetric(res.Conga.MaxUtilPerm/10, "conga-maxutil-%")
			b.Log("\n" + res.Table())
		}
	}
}

// BenchmarkSec25SketchMeasurement regenerates the §2.5 measurement numbers:
// estimator accuracy, sampling overhead, and the k=64 fat-tree sizing.
func BenchmarkSec25SketchMeasurement(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := testbed.RunSec25()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(res.Estimate, "estimated-sources")
			b.ReportMetric(res.OverheadFrac*100, "sampling-ovh-%")
			b.ReportMetric(float64(res.MemPerServer)/1e6, "MB/server-k64")
			b.Log("\n" + res.Table())
		}
	}
}

// BenchmarkTable3HardwareLatency evaluates the §6.1 latency model (Table 3
// and the derived worst-case/buffering/latency-share claims).
func BenchmarkTable3HardwareLatency(b *testing.B) {
	var out string
	for i := 0; i < b.N; i++ {
		out = testbed.HardwareTables()
	}
	b.ReportMetric(50, "worst-tpp-ns")
	b.ReportMetric(6250, "stall-buffer-B")
	b.Log("\n" + out)
}

// BenchmarkTable4DieArea reports the Table 4 resource model (rendered with
// Table 3 above; the metric here is the §6.1 area claim).
func BenchmarkTable4DieArea(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = testbed.HardwareTables()
	}
	b.ReportMetric(0.32, "asic-area-%")
	b.ReportMetric(320, "tcpus")
}

// BenchmarkFig10DataplaneThroughput regenerates Figure 10: wall-clock shim
// throughput vs TPP sampling frequency for 1/10/20 flows.
func BenchmarkFig10DataplaneThroughput(b *testing.B) {
	for i := 0; i < b.N; i++ {
		out, err := testbed.RunFig10(200_000)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + out)
		}
	}
	// Headline: goodput ratio between always-on TPPs and none.
	withTPP, err := testbed.RunShim(testbed.ShimConfig{Rules: 1, SampleFreq: 1, Flows: 10, Packets: 200_000})
	if err != nil {
		b.Fatal(err)
	}
	without, err := testbed.RunShim(testbed.ShimConfig{Rules: 1, SampleFreq: 0, Flows: 10, Packets: 200_000})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(withTPP.GoodputGbps, "goodput-sampled1-Gbps")
	b.ReportMetric(without.GoodputGbps, "goodput-inf-Gbps")
}

// BenchmarkTable5FilterScaling regenerates Table 5: shim throughput vs the
// number of installed filter rules.
func BenchmarkTable5FilterScaling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		out, err := testbed.RunTable5(100_000)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + out)
		}
	}
	small, err := testbed.RunShim(testbed.ShimConfig{Rules: 10, Match: "all", SampleFreq: 1, Flows: 10, Packets: 100_000})
	if err != nil {
		b.Fatal(err)
	}
	big, err := testbed.RunShim(testbed.ShimConfig{Rules: 1000, Match: "all", SampleFreq: 1, Flows: 10, Packets: 100_000})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(small.NetGbps, "net-Gbps-10rules")
	b.ReportMetric(big.NetGbps, "net-Gbps-1000rules")
}

// BenchmarkSec21Overhead verifies the §2.1 overhead arithmetic.
func BenchmarkSec21Overhead(b *testing.B) {
	var out string
	for i := 0; i < b.N; i++ {
		out = testbed.Sec21Table()
	}
	b.ReportMetric(84, "tpp-bytes-5hops")
	b.Log("\n" + out)
}

// BenchmarkEndToEndHop measures one steady-state forward cycle — host send
// with TPP attachment → switch hop with TCPU execution → terminal delivery
// and packet recycle. allocs/op is the headline: 0 in steady state.
func BenchmarkEndToEndHop(b *testing.B) {
	benchmarkHop(b, true)
}

// BenchmarkEndToEndHopNoTPP is the same cycle without TPP attachment — the
// baseline that isolates instrumentation cost.
func BenchmarkEndToEndHopNoTPP(b *testing.B) {
	benchmarkHop(b, false)
}

func benchmarkHop(b *testing.B, withTPP bool) {
	e, err := testbed.NewE2EHarness(withTPP)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		e.Step()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
}
