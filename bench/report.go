package bench

import (
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// Bounds are the regression bounds of the end-to-end metrics: the share of
// the parent's median by which a metric may get worse. BENCHMARK.json
// carries the same numbers (a test keeps the two in step).
var Bounds = map[string]float64{
	MetricNsPerPktHop: 0.05,
	MetricSetupS:      0.15,
	MetricLiveHeapMB:  0.05,
}

// Bound is the bound of one workload's metric: Bounds, except that a
// two-shard run's wall time depends on how the OS schedules its threads, so
// ns_per_pkt_hop on fabric-k16-shards2 is allowed 10%. BENCHMARK.json has
// room for one bound per metric and carries the tight one.
func Bound(workload, metric string) float64 {
	if w, _ := Lookup(workload); w != nil && w.Shards > 1 && metric == MetricNsPerPktHop {
		return 0.10
	}
	return Bounds[metric]
}

// EndToEndMetrics lists the gated metrics in report order.
var EndToEndMetrics = []string{MetricNsPerPktHop, MetricSetupS, MetricLiveHeapMB}

// WorkloadReport aggregates every round of one workload.
type WorkloadReport struct {
	Workload string             `json:"workload"`
	Rounds   int                `json:"rounds"`
	EndToEnd map[string]Summary `json:"end_to_end"`
	Info     map[string]float64 `json:"info"` // medians of the runs' Info
	Layers   map[string]float64 `json:"layers,omitempty"`

	ChecksTotal  int      `json:"checks_total"`
	ChecksFailed int      `json:"checks_failed"`
	Failures     []string `json:"failures,omitempty"`
	// RecoveryMissed is Result.RecoveryMissed (the same seeds every round).
	RecoveryMissed []int64 `json:"recovery_missed,omitempty"`

	// Digest is the behaviour digest every round of the workload gave;
	// rounds that differ are a determinism failure.
	Digest    string `json:"digest"`
	TraceFile string `json:"trace_file,omitempty"`
}

// Report is one full set of runs.
type Report struct {
	Machine   Machine           `json:"machine"`
	Seed      int64             `json:"seed"`
	Seconds   float64           `json:"seconds"`
	Workloads []*WorkloadReport `json:"workloads"`
	// Derived holds the informational, ungated ratios: the TPP tax, the
	// shard speed-up.
	Derived  map[string]float64 `json:"derived"`
	Problems []string           `json:"problems,omitempty"`
}

// Aggregate folds runs (any order, traced and untraced mixed) into a
// report. End-to-end summaries come from the untraced runs only; the
// per-layer metrics from the traced run, with testbed.trace_overhead_pct
// derived from the two.
func Aggregate(runs []*Result, m Machine) *Report {
	rep := &Report{Machine: m, Derived: map[string]float64{}}
	by := map[string]*WorkloadReport{}
	e2e := map[string]map[string][]float64{}
	info := map[string]map[string][]float64{}
	for _, r := range runs {
		rep.Seed, rep.Seconds = r.Seed, r.Seconds
		wr := by[r.Workload]
		if wr == nil {
			wr = &WorkloadReport{Workload: r.Workload, EndToEnd: map[string]Summary{},
				Info: map[string]float64{}, Digest: r.Digest}
			by[r.Workload] = wr
			e2e[r.Workload] = map[string][]float64{}
			info[r.Workload] = map[string][]float64{}
		}
		wr.ChecksTotal += r.ChecksTotal
		wr.ChecksFailed += r.ChecksFailed
		wr.Failures = append(wr.Failures, r.Failures...)
		wr.RecoveryMissed = r.RecoveryMissed
		if r.Digest != wr.Digest {
			rep.Problems = append(rep.Problems, fmt.Sprintf(
				"%s seed %d: digest %s in one run, %s in another", r.Workload, r.Seed, wr.Digest, r.Digest))
		}
		if r.Traced {
			wr.Layers = r.Layers
			wr.TraceFile = r.TraceFile
			continue
		}
		wr.Rounds++
		for k, v := range r.EndToEnd {
			e2e[r.Workload][k] = append(e2e[r.Workload][k], v)
		}
		for k, v := range r.Info {
			info[r.Workload][k] = append(info[r.Workload][k], v)
		}
	}
	for _, w := range Workloads {
		wr := by[w.Name]
		if wr == nil {
			continue
		}
		for k, xs := range e2e[w.Name] {
			wr.EndToEnd[k] = Summarize(xs)
		}
		for k, xs := range info[w.Name] {
			wr.Info[k] = Median(xs)
		}
		if wr.Layers != nil && wr.Rounds > 0 {
			base := wr.EndToEnd[MetricNsPerPktHop].Median
			wr.Layers["testbed.trace_overhead_pct"] =
				100 * (wr.Layers["testbed.traced_ns_per_pkt_hop"] - base) / base
		}
		if wr.ChecksFailed > 0 {
			rep.Problems = append(rep.Problems, fmt.Sprintf("%s: %d of %d checks failed: %v",
				w.Name, wr.ChecksFailed, wr.ChecksTotal, wr.Failures))
		}
		rep.Workloads = append(rep.Workloads, wr)
	}

	med := func(w string) float64 {
		if wr := by[w]; wr != nil {
			return wr.EndToEnd[MetricNsPerPktHop].Median
		}
		return 0
	}
	rep.Derived["tpp_tax"] = ratio(med("cbr-tpp"), med("cbr-plain"))
	rep.Derived["shard_speedup"] = ratio(med("fabric-k16"), med("fabric-k16-shards2"))
	// Same inputs on one and two shards must behave identically.
	if a, b := by["fabric-k16"], by["fabric-k16-shards2"]; a != nil && b != nil && a.Digest != b.Digest {
		rep.Problems = append(rep.Problems, fmt.Sprintf(
			"fabric-k16 digest %s != fabric-k16-shards2 digest %s", a.Digest, b.Digest))
	}
	return rep
}

// Pins returns the digests this set observed, keyed as digests.json is.
func (rep *Report) Pins() map[string]string {
	pins := map[string]string{}
	for _, wr := range rep.Workloads {
		pins[digestKey(wr.Workload, rep.Seed, rep.Seconds)] = wr.Digest
	}
	return pins
}

// Disagreements compares two sets of runs of the same code: every
// end-to-end metric's medians must agree within its bound, and every
// deterministic count — digests, and pkt-hops and events in Info — must be
// identical.
func Disagreements(a, b *Report) []string {
	var out []string
	idx := map[string]*WorkloadReport{}
	for _, w := range b.Workloads {
		idx[w.Workload] = w
	}
	for _, wa := range a.Workloads {
		wb := idx[wa.Workload]
		if wb == nil {
			out = append(out, wa.Workload+": missing from the second set")
			continue
		}
		for _, m := range EndToEndMetrics {
			ma, mb := wa.EndToEnd[m].Median, wb.EndToEnd[m].Median
			bound := Bound(wa.Workload, m)
			if d := math.Abs(mb-ma) / ma; d > bound {
				out = append(out, fmt.Sprintf("%s %s: medians %.4g and %.4g differ by %.1f%% (bound %.0f%%)",
					wa.Workload, m, ma, mb, 100*d, 100*bound))
			}
		}
		if wa.Digest != wb.Digest {
			out = append(out, fmt.Sprintf("%s: digest %s then %s", wa.Workload, wa.Digest, wb.Digest))
		}
		for _, k := range []string{"pkt_hops", "events"} {
			if wa.Info[k] != wb.Info[k] {
				out = append(out, fmt.Sprintf("%s %s: %v then %v", wa.Workload, k, wa.Info[k], wb.Info[k]))
			}
		}
	}
	return out
}

// Print renders the report for humans: per workload, every end-to-end
// metric with its order statistics; the derived ratios; and, when a traced
// round ran, the "where a packet-hop goes" table.
func (rep *Report) Print(w io.Writer) {
	m := rep.Machine
	fmt.Fprintf(w, "machine: %s, nproc %d, GOMAXPROCS %d, %s, commit %s, %s\n",
		m.CPU, m.NumCPU, m.GOMAXPROCS, m.GoVersion, m.Commit, m.When)
	fmt.Fprintf(w, "host time unless marked sim; -seconds %g (windows are fixed simulated work)\n\n", rep.Seconds)
	fmt.Fprintf(w, "%-20s %-15s %4s %10s %10s %10s %10s %10s %8s %6s\n",
		"workload", "metric", "unit", "median", "q1", "q3", "min", "max", "spread%", "n")
	for _, wr := range rep.Workloads {
		for _, name := range EndToEndMetrics {
			s := wr.EndToEnd[name]
			fmt.Fprintf(w, "%-20s %-15s %4s %10.4g %10.4g %10.4g %10.4g %10.4g %8.2f %6d\n",
				wr.Workload, name, Units(name), s.Median, s.Q1, s.Q3, s.Min, s.Max, 100*s.Spread(), s.N)
		}
		fmt.Fprintf(w, "%-20s checks_total %d checks_failed %d  wall_s_per_sim_s %.4g  pkt_hops %.0f\n",
			wr.Workload, wr.ChecksTotal, wr.ChecksFailed, wr.Info["wall_s_per_sim_s"], wr.Info["pkt_hops"])
		if len(wr.RecoveryMissed) > 0 {
			fmt.Fprintf(w, "%-20s RECOVERY MISSED (reported, not in checks_failed): seeds %v never regained 90%% of the RCP* baseline\n",
				wr.Workload, wr.RecoveryMissed)
		}
	}
	fmt.Fprintf(w, "\nderived (not gated): TPP tax cbr-tpp/cbr-plain = %.3f, shard speed-up fabric-k16/fabric-k16-shards2 = %.3f\n",
		rep.Derived["tpp_tax"], rep.Derived["shard_speedup"])
	rep.printLedger(w)
	for _, p := range rep.Problems {
		fmt.Fprintln(w, "PROBLEM:", p)
	}
}

// printLedger prints, per traced workload, each layer's driver-derived
// ns per pkt-hop and share beside the in-situ CPU profile share.
func (rep *Report) printLedger(w io.Writer) {
	traced := false
	for _, wr := range rep.Workloads {
		traced = traced || wr.Layers != nil
	}
	if !traced {
		return
	}
	fmt.Fprintf(w, "\nwhere a packet-hop goes: ledger ns/pkt-hop (ledger %% | in-situ cpu_share %%)\n")
	fmt.Fprintf(w, "%-20s", "workload")
	for _, l := range ledgerLayers {
		fmt.Fprintf(w, " %16s", l)
	}
	fmt.Fprintf(w, " %9s %9s %9s\n", "residual%", "runtime%", "overhead%")
	for _, wr := range rep.Workloads {
		L := wr.Layers
		if L == nil {
			continue
		}
		total := L["testbed.traced_ns_per_pkt_hop"]
		fmt.Fprintf(w, "%-20s", wr.Workload)
		for _, l := range ledgerLayers {
			v := L[l+".ns_per_pkt_hop"]
			cell := fmt.Sprintf("%.0f (%.0f|%.0f)", v, 100*v/total, L["cpu_share."+profileKey(l)])
			fmt.Fprintf(w, " %16s", cell)
		}
		fmt.Fprintf(w, " %9.1f %9.1f %9.1f\n", L["testbed.attribution_residual_pct"],
			L["cpu_share.runtime"]+L["cpu_share.other"], L["testbed.trace_overhead_pct"])
	}
	fmt.Fprintln(w, "\nper-layer metrics (traced round):")
	names := make([]string, 0, len(LayerMetrics)+1)
	for _, md := range LayerMetrics {
		names = append(names, md.Name)
	}
	names = append(names, "testbed.trace_overhead_pct")
	sort.Strings(names)
	fmt.Fprintf(w, "%-40s %6s", "metric", "unit")
	for _, wr := range rep.Workloads {
		if wr.Layers != nil {
			fmt.Fprintf(w, " %12.12s", wr.Workload)
		}
	}
	fmt.Fprintln(w)
	for _, n := range names {
		fmt.Fprintf(w, "%-40s %6s", n, Units(n))
		for _, wr := range rep.Workloads {
			if wr.Layers != nil {
				fmt.Fprintf(w, " %12.5g", wr.Layers[n])
			}
		}
		fmt.Fprintln(w)
	}
}

// profileKey maps a ledger row to the cpu_share bucket shown beside it;
// shard sync runs inside package sim, so its samples are in sim's share.
func profileKey(layer string) string {
	if layer == "sim.shard" {
		return "sim"
	}
	return layer
}

// Machine describes where a report was measured.
type Machine struct {
	CPU        string `json:"cpu"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go"`
	Commit     string `json:"commit"`
	When       string `json:"when"`
}

// Stamp reads the machine description: CPU model from /proc/cpuinfo, the
// commit from .git/HEAD when the working directory is a git checkout.
func Stamp() Machine {
	return Machine{
		CPU: cpuModel(), NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Commit: headCommit(), When: time.Now().UTC().Format(time.RFC3339),
	}
}

// cpuModel reads the CPU model name from /proc/cpuinfo.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(line, "model name") {
			if i := strings.IndexByte(line, ':'); i >= 0 {
				return strings.TrimSpace(line[i+1:])
			}
		}
	}
	return "unknown"
}

// headCommit resolves .git/HEAD in the working directory, "unknown" when
// the directory is not a git checkout (the benchmark driver's is not).
func headCommit() string {
	head, err := os.ReadFile(".git/HEAD")
	if err != nil {
		return "unknown"
	}
	s := strings.TrimSpace(string(head))
	if ref, ok := strings.CutPrefix(s, "ref: "); ok {
		b, err := os.ReadFile(".git/" + ref)
		if err != nil {
			return "unknown"
		}
		s = strings.TrimSpace(string(b))
	}
	if len(s) > 12 {
		s = s[:12]
	}
	return s
}
