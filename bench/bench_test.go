package bench

import (
	"encoding/json"
	"math"
	"os"
	"regexp"
	"sort"
	"strings"
	"sync"
	"testing"
)

// tinySeconds runs every workload at 1/100 of its nominal length.
const tinySeconds = NominalSeconds / 100.0

// tinyRuns performs one traced run of every workload at 1/100 length,
// once per test binary.
var tinyRuns = sync.OnceValues(func() (map[string]*Result, error) {
	out := map[string]*Result{}
	for _, w := range Workloads {
		r, err := Run(Config{Workload: w.Name, Seed: 1, Seconds: tinySeconds, Trace: true})
		if err != nil {
			return nil, err
		}
		out[w.Name] = r
	}
	return out, nil
})

type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc benchmarkJSON
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	return doc
}

// Every workload passes its checks at 1/100 length and emits exactly the
// metric names BENCHMARK.json declares.
func TestWorkloadsEmitDeclaredMetrics(t *testing.T) {
	runs, err := tinyRuns()
	if err != nil {
		t.Fatal(err)
	}
	doc := readBenchmarkJSON(t)
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	if len(doc.EndToEnd) > 16 || len(doc.PerLayer) > 128 {
		t.Fatalf("%d end-to-end and %d per-layer metrics exceed 16/128", len(doc.EndToEnd), len(doc.PerLayer))
	}
	var wantE2E, wantLayer []string
	for _, m := range doc.EndToEnd {
		wantE2E = append(wantE2E, m.Name)
		if !nameRE.MatchString(m.Name) || m.Unit != Units(m.Name) || m.Bound != Bounds[m.Name] || m.Better != "lower" {
			t.Errorf("end-to-end %+v does not match the package (unit %q, bound %v)", m, Units(m.Name), Bounds[m.Name])
		}
	}
	if len(doc.PerLayer) != len(LayerMetrics) {
		t.Fatalf("BENCHMARK.json declares %d per-layer metrics, the package %d", len(doc.PerLayer), len(LayerMetrics))
	}
	for i, m := range doc.PerLayer {
		wantLayer = append(wantLayer, m.Name)
		if def := LayerMetrics[i]; !nameRE.MatchString(m.Name) || m.Name != def.Name || m.Unit != def.Unit || m.Better != def.Better {
			t.Errorf("per-layer %+v does not match the package's %+v", m, def)
		}
	}
	sort.Strings(wantE2E)
	sort.Strings(wantLayer)
	if len(doc.Workloads) != len(Workloads) || doc.RunSeconds != NominalSeconds {
		t.Fatalf("BENCHMARK.json lists %d workloads at %d s, the package %d at %d s",
			len(doc.Workloads), doc.RunSeconds, len(Workloads), NominalSeconds)
	}
	for i, w := range Workloads {
		if doc.Workloads[i].Name != w.Name || doc.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json %q, package %q", i, doc.Workloads[i].Name, w.Name)
		}
		r := runs[w.Name]
		if r.ChecksTotal == 0 || r.ChecksFailed != 0 {
			t.Errorf("%s: %d of %d checks failed: %v", w.Name, r.ChecksFailed, r.ChecksTotal, r.Failures)
		}
		if got := SortedKeys(r.EndToEnd); !equal(got, wantE2E) {
			t.Errorf("%s: end-to-end metrics %v, declared %v", w.Name, got, wantE2E)
		}
		if got := SortedKeys(r.Layers); !equal(got, wantLayer) {
			t.Errorf("%s: per-layer metrics differ from BENCHMARK.json:\n got %v\nwant %v", w.Name, got, wantLayer)
		}
		for k, v := range r.EndToEnd {
			if !(v > 0) || math.IsInf(v, 0) {
				t.Errorf("%s: %s = %v, want a positive finite reading", w.Name, k, v)
			}
		}
		for k, v := range r.Layers {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Errorf("%s: %s = %v", w.Name, k, v)
			}
		}
	}
	if v := runs["cbr-plain"].Layers["core.execs_per_pkt_hop"]; v != 0 {
		t.Errorf("cbr-plain executes no TPP, core.execs_per_pkt_hop = %v", v)
	}
	if v := runs["cbr-tpp"].Layers["core.execs_per_pkt_hop"]; !(v > 0.5) {
		t.Errorf("cbr-tpp runs the TCPU on every switch hop, core.execs_per_pkt_hop = %v", v)
	}
	if v := runs["cbr-tpp5-rw"].Layers["host.tpp_attached_share"]; v != 1 {
		t.Errorf("cbr-tpp5-rw must fit its 5-instruction TPP under the MTU on every packet, attached share %v", v)
	}
	if v := runs["export"].Layers["telemetry.records_per_pkt_hop"]; !(v > 0.5) {
		t.Errorf("export publishes one record per hop record, records_per_pkt_hop = %v", v)
	}
	if v := runs["fabric-k16-shards2"].Layers["sim.shard_crossings_per_pkt_hop"]; !(v > 0) {
		t.Errorf("fabric-k16-shards2 crossed no shard boundary")
	}
}

func equal(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// One seed gives one digest, another seed another; one and two shards
// give the same, in the pin file too.
func TestDigests(t *testing.T) {
	runs, err := tinyRuns()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"cbr-tpp", "dcmix", "apps-chaos"} {
		again, err := Run(Config{Workload: name, Seed: 1, Seconds: tinySeconds})
		if err != nil {
			t.Fatal(err)
		}
		if again.Digest != runs[name].Digest {
			t.Errorf("%s: seed 1 gave digest %s traced and %s untraced", name, runs[name].Digest, again.Digest)
		}
		other, err := Run(Config{Workload: name, Seed: 2, Seconds: tinySeconds})
		if err != nil {
			t.Fatal(err)
		}
		if other.Digest == again.Digest {
			t.Errorf("%s: seeds 1 and 2 gave the same digest %s", name, other.Digest)
		}
	}
	if a, b := runs["fabric-k16"].Digest, runs["fabric-k16-shards2"].Digest; a != b {
		t.Errorf("fabric-k16 digest %s != fabric-k16-shards2 digest %s", a, b)
	}
	a := pinnedDigest("fabric-k16", 1, NominalSeconds)
	b := pinnedDigest("fabric-k16-shards2", 1, NominalSeconds)
	if a == "" || a != b {
		t.Errorf("digests.json pins fabric-k16 %q but fabric-k16-shards2 %q", a, b)
	}
}

// Seed 6 never regains 90% of its RCP* baseline at HEAD: the run names it
// and counts it, and (see runChaos) does not count it as a failed operation.
func TestChaosRecoveryMissIsReported(t *testing.T) {
	r, err := Run(Config{Workload: "apps-chaos", Seed: 6, Seconds: tinySeconds, Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.RecoveryMissed) != 1 || r.RecoveryMissed[0] != 6 || r.Layers["apps.recovery_misses"] != 1 {
		t.Errorf("seed 6: recovery_missed %v, apps.recovery_misses %v; want [6] and 1",
			r.RecoveryMissed, r.Layers["apps.recovery_misses"])
	}
	if r.ChecksTotal != 1 || r.ChecksFailed != 0 {
		t.Errorf("seed 6: %d of %d checks failed: %v", r.ChecksFailed, r.ChecksTotal, r.Failures)
	}
}

func TestSummarize(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	s := Summarize([]float64{7, 1, 10, 3, 5, 2, 9, 4, 8, 6})
	if s.N != 10 || s.Min != 1 || s.Max != 10 || s.Q1 != 2.75 || s.Median != 5.5 || s.Q3 != 8.25 {
		t.Errorf("Summarize(1..10) = %+v", s)
	}
	if got := s.Spread(); got != 1 {
		t.Errorf("Spread = %v, want (8.25-2.75)/5.5 = 1", got)
	}
	// statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
	s = Summarize([]float64{16, 1, 4, 2, 8})
	if s.Q1 != 1.5 || s.Median != 4 || s.Q3 != 12 {
		t.Errorf("Summarize(1,2,4,8,16) = %+v", s)
	}
	if s := Summarize([]float64{3}); s.Median != 3 || s.Q1 != 3 || s.Q3 != 3 {
		t.Errorf("Summarize(3) = %+v", s)
	}
	if got := p90([]float64{5, 1, 4, 2, 3, 10, 9, 8, 7, 6}); math.Abs(got-9.1) > 1e-12 || p90(nil) != 0 {
		t.Errorf("p90(1..10) = %v, want 9.1; p90(nil) = %v, want 0", got, p90(nil))
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []Span{
		{ID: 0, Parent: -1, Name: "run", Start: 0, End: 100},
		{ID: 1, Parent: 0, Name: "setup", Start: 10, End: 40},
		{ID: 2, Parent: 1, Name: "topo.build", Start: 10, End: 25},
		{ID: 3, Parent: 0, Name: "window", Start: 50, End: 90},
		{ID: 4, Parent: 0, Name: "overlap", Start: 80, End: 95}, // overlaps window: counted once
	}
	self := SelfTimes(spans)
	want := map[int]int64{0: 100 - 30 - 40 - 5, 1: 15, 2: 15, 3: 40, 4: 15}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self[%d %s] = %d, want %d", id, spans[id].Name, self[id], w)
		}
	}
	rec := NewRecorder("t")
	rec.Begin("a")
	rec.Do("b", func() {})
	rec.End()
	if s := rec.Spans(); len(s) != 2 || s[1].Parent != s[0].ID || s[0].Parent != -1 || s[1].Run != "t" {
		t.Errorf("recorder nesting: %+v", s)
	}
}

// Aggregate's arithmetic: medians from untraced runs only, overhead from
// the traced one, digest mismatches and failed checks reported.
func TestAggregate(t *testing.T) {
	run := func(w string, seed int64, ns float64, traced bool, digest string) *Result {
		r := &Result{Workload: w, Seed: seed, Seconds: 3, Traced: traced, Digest: digest,
			EndToEnd: map[string]float64{MetricNsPerPktHop: ns, MetricSetupS: 1, MetricLiveHeapMB: 2},
			Info:     map[string]float64{"pkt_hops": 10}, ChecksTotal: 5}
		if traced {
			r.Layers = map[string]float64{"testbed.traced_ns_per_pkt_hop": ns}
		}
		return r
	}
	rep := Aggregate([]*Result{
		run("cbr-plain", 1, 100, false, "a"), run("cbr-plain", 1, 102, false, "a"),
		run("cbr-plain", 1, 104, false, "a"), run("cbr-plain", 1, 110, true, "a"),
		run("cbr-tpp", 1, 153, false, "b"),
	}, Machine{})
	if len(rep.Problems) != 0 {
		t.Errorf("unexpected problems: %v", rep.Problems)
	}
	plain := rep.Workloads[0]
	if plain.Rounds != 3 || plain.EndToEnd[MetricNsPerPktHop].Median != 102 {
		t.Errorf("cbr-plain: %d rounds, median %v", plain.Rounds, plain.EndToEnd[MetricNsPerPktHop].Median)
	}
	if got := plain.Layers["testbed.trace_overhead_pct"]; math.Abs(got-100*8.0/102) > 1e-9 {
		t.Errorf("trace overhead %v", got)
	}
	if got := rep.Derived["tpp_tax"]; got != 1.5 {
		t.Errorf("tpp tax %v, want 1.5", got)
	}

	bad := run("cbr-plain", 1, 100, false, "zzz")
	bad.ChecksFailed, bad.Failures = 1, []string{"pool leak"}
	rep2 := Aggregate([]*Result{run("cbr-plain", 1, 100, false, "a"), bad}, Machine{})
	if len(rep2.Problems) != 2 {
		t.Errorf("want a digest and a check problem, got %v", rep2.Problems)
	}

	slow := Aggregate([]*Result{run("cbr-plain", 1, 107, false, "a"), run("fabric-k16-shards2", 1, 107, false, "b")}, Machine{})
	fast := Aggregate([]*Result{run("cbr-plain", 1, 100, false, "a"), run("fabric-k16-shards2", 1, 100, false, "b")}, Machine{})
	if d := Disagreements(fast, slow); len(d) != 1 || !strings.HasPrefix(d[0], "cbr-plain") {
		t.Errorf("7%% apart must disagree on one engine (bound 5%%) but not on two shards (10%%), got %v", d)
	}
	if pins := fast.Pins(); len(pins) != 2 || pins["cbr-plain/seed=1/seconds=3"] != "a" {
		t.Errorf("Pins() = %v", pins)
	}
	if d := Disagreements(fast, fast); len(d) != 0 {
		t.Errorf("a set agrees with itself, got %v", d)
	}
}
