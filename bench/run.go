package bench

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime/debug"
	"sort"

	"minions/tppnet"
)

// End-to-end metric names (every workload reports all three, lower is
// better) and their units.
const (
	MetricNsPerPktHop = "ns_per_pkt_hop" // host ns per link transmission
	MetricSetupS      = "setup_s"        // host seconds before the window
	MetricLiveHeapMB  = "live_heap_mb"   // live heap at window start
)

// Config selects one run: one workload, one seed, one process.
type Config struct {
	Workload string
	Seed     int64
	// Seconds scales the fixed simulated window (see NominalSeconds).
	Seconds float64
	// Trace selects the traced run: spans around every call into a layer,
	// the window cut into slices and wrapped in a CPU profile, the layer
	// drivers and the ledger. End-to-end metrics come from untraced runs.
	Trace bool
	// OutDir receives trace-<workload>.json (traced runs only).
	OutDir string
}

// Result is one run's report.
type Result struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Seconds  float64 `json:"seconds"`
	Traced   bool    `json:"traced"`

	// EndToEnd holds the three gated metrics; Layers the per-layer metrics
	// (traced runs only); Info ungated readings derived from the same run.
	EndToEnd map[string]float64 `json:"end_to_end"`
	Layers   map[string]float64 `json:"layers,omitempty"`
	Info     map[string]float64 `json:"info"`

	// ChecksTotal/ChecksFailed are the attempted and failed operations.
	ChecksTotal  int      `json:"checks_total"`
	ChecksFailed int      `json:"checks_failed"`
	Failures     []string `json:"failures,omitempty"`
	// RecoveryMissed names the apps-chaos seeds whose RCP* aggregate never
	// regained 90% of its baseline within the epoch bound (see runChaos for
	// why they are not counted in ChecksFailed).
	RecoveryMissed []int64 `json:"recovery_missed,omitempty"`

	// Digest condenses the run's simulated behaviour; Pinned is the value
	// committed in digests.json for this (workload, seed, seconds), empty
	// when none is pinned.
	Digest string `json:"digest"`
	Pinned string `json:"pinned,omitempty"`

	TraceFile string `json:"trace_file,omitempty"`
}

// Units maps every metric name to its unit.
func Units(name string) string {
	switch name {
	case MetricNsPerPktHop:
		return "ns"
	case MetricSetupS:
		return "s"
	case MetricLiveHeapMB:
		return "MB"
	case "testbed.trace_overhead_pct": // derived in the report from two runs
		return "%"
	}
	for _, m := range LayerMetrics {
		if m.Name == name {
			return m.Unit
		}
	}
	return "count"
}

// Run executes one run and returns its report. An error means the run
// could not be carried out; failed checks are reported in the Result.
func Run(cfg Config) (*Result, error) {
	w, err := Lookup(cfg.Workload)
	if err != nil {
		return nil, err
	}
	if cfg.Seconds <= 0 {
		return nil, fmt.Errorf("bench: seconds must be positive, got %v", cfg.Seconds)
	}
	res := &Result{
		Workload: w.Name, Seed: cfg.Seed, Seconds: cfg.Seconds, Traced: cfg.Trace,
		EndToEnd: map[string]float64{}, Info: map[string]float64{},
	}
	rec := NewRecorder(fmt.Sprintf("%s/%d", w.Name, cfg.Seed))
	ck := &checker{}
	rec.Begin("run")
	if w.Chaos {
		err = runChaosWorkload(w, cfg, res, rec, ck)
	} else {
		err = runFabricWorkload(w, cfg, res, rec, ck)
	}
	if err != nil {
		return nil, err
	}
	rec.End()

	res.ChecksTotal, res.ChecksFailed, res.Failures = ck.total, ck.failed, ck.failures
	res.Pinned = pinnedDigest(w.Name, cfg.Seed, cfg.Seconds)
	if cfg.Trace {
		drift := 0.0
		if res.Pinned != "" && res.Pinned != res.Digest {
			drift = 1
		}
		res.Layers["testbed.digest_drift"] = drift
		fillZeros(res.Layers)
		if cfg.OutDir != "" {
			if err := os.MkdirAll(cfg.OutDir, 0o755); err != nil {
				return nil, err
			}
			res.TraceFile = filepath.Join(cfg.OutDir, "trace-"+w.Name+".json")
			if err := rec.WriteJSON(res.TraceFile); err != nil {
				return nil, err
			}
		}
	}
	return res, nil
}

// builds is how many times one run builds, warms up and measures the
// scenario, each build measuring 1/builds of the window; every end-to-end
// metric is the median over the builds. One build's window is a short
// sample — on the k=16 workloads, where the working set is far beyond cache,
// the builds of one run differ by up to 4% in ns_per_pkt_hop — and the
// median over five steadies it (run medians repeat within about 1% at k=4
// and 3% at k=16). Every build starts from a heap handed back to the OS, so each
// set-up pays heap growth and first-touch page faults as a fresh process
// does; what only the process's first build pays on top of that shows in
// the informational setup_cold_s.
const builds = 5

// scale returns the share of the nominal window this run measures.
func (cfg Config) scale() float64 { return cfg.Seconds / NominalSeconds }

// setupStats folds the repeated set-ups into setup_s and the span metrics:
// the median, over repetitions, of each phase's duration.
func setupStats(rec *Recorder, res *Result) {
	self := map[string][]float64{}
	var totals []float64
	for _, s := range rec.Spans() {
		d := float64(s.End-s.Start) / 1e9
		if s.Name == "setup" {
			totals = append(totals, d)
		}
		for _, ph := range setupPhases {
			if s.Name == ph {
				self[ph] = append(self[ph], d)
			}
		}
	}
	res.EndToEnd[MetricSetupS] = Median(totals)
	res.Info["setup_cold_s"] = totals[0]
	if res.Layers != nil {
		for _, ph := range setupPhases {
			res.Layers[ph+"_s"] = Median(self[ph])
		}
	}
}

func runFabricWorkload(w *Workload, cfg Config, res *Result, rec *Recorder, ck *checker) error {
	scale := cfg.scale()
	// Each build measures an equal share of the window, a whole number of
	// slices long, so traced and untraced runs do identical work.
	dur := tppnet.Time(float64(w.Window)*scale) / builds / windowSlices * windowSlices
	if dur < windowSlices {
		dur = windowSlices
	}
	warm := w.Warmup
	if scale < 1 {
		warm = tppnet.Time(float64(w.Warmup) * scale)
	}
	if cfg.Trace {
		res.Layers = map[string]float64{}
	}

	var (
		sc           *scenario
		win          window
		nsHops, heap []float64
		slices       []float64 // traced: per-slice cost, all builds pooled
		pending      float64   // traced: Σ over builds of the mean pending events
		queueMax     int
		prof         = &cpuProfile{}
	)
	for i := 0; i < builds; i++ {
		sc = nil
		debug.FreeOSMemory() // the previous build is garbage: collect it and unmap the heap
		var err error
		if sc, err = buildScenario(w, cfg.Seed, warm, rec); err != nil {
			return err
		}
		win = sc.measure(dur, cfg.Trace, rec, prof.around)
		if err := sc.drain(rec); err != nil {
			return err
		}
		end := sc.scrape()
		ck.checkDrained(&end, sc.net.PoolOutstanding())
		ck.checkFabric(sc, &win, &end)
		digest := fabricDigest(&win, &end)
		if i > 0 {
			ck.check(digest == res.Digest, "build %d behaved differently: digest %s, build 0 %s", i, digest, res.Digest)
		}
		res.Digest = digest
		hops := float64(win.after.pktHops - win.before.pktHops)
		nsHops = append(nsHops, float64(win.wall.Nanoseconds())/hops)
		heap = append(heap, float64(win.heapBytes)/1e6)
		slices = append(slices, win.slicesNs...)
		pending += win.pendingSum / windowSlices
		queueMax = max(queueMax, win.queueMax, win.after.queueMax)
	}
	setupStats(rec, res)

	// Simulated behaviour is the same in every build (the digest check
	// above), so counts are read off the last one; host time is the median.
	hops := float64(win.after.pktHops - win.before.pktHops)
	nsHop := Median(nsHops)
	res.EndToEnd[MetricNsPerPktHop] = nsHop
	res.EndToEnd[MetricLiveHeapMB] = Median(heap)
	res.Info["window_wall_s"] = win.wall.Seconds() * float64(builds)
	res.Info["window_sim_s"] = win.sim.Seconds() * float64(builds)
	res.Info["wall_s_per_sim_s"] = nsHop * hops / 1e9 / win.sim.Seconds()
	res.Info["pkt_hops"] = hops * float64(builds)
	res.Info["events"] = float64(win.events) * float64(builds)
	res.Info["builds"] = float64(builds)
	if !cfg.Trace {
		return nil
	}

	L := res.Layers
	L["topo.route_bytes_per_node"] = sc.routeBytesPerNode
	L["testbed.traced_ns_per_pkt_hop"] = nsHop
	in := insitu{
		pktHops: hops, events: float64(win.events),
		pendingMean: pending / float64(builds),
		swRx:        float64(win.after.swRx - win.before.swRx),
		execs:       float64(win.after.tppHops - win.before.tppHops),
		hostTx:      float64(win.after.hostTx - win.before.hostTx),
		hostRx:      float64(win.after.hostRx - win.before.hostRx),
		sinkPkts:    float64(win.after.sinkPkts - win.before.sinkPkts),
		genPkts:     float64(win.after.genPkts - win.before.genPkts),
		records:     float64(win.after.published - win.before.published),
		captured:    float64(win.after.captured - win.before.captured),
		crossings:   float64(win.after.sync.Crossings - win.before.sync.Crossings),
	}
	fillCounts(L, &win.before, &win.after, &in)
	L["sim.shard_drains_per_crossing"] = ratio(float64(win.after.sync.Drains-win.before.sync.Drains), in.crossings)
	L["sim.shard_sync_points"] = float64(win.after.sync.Epochs - win.before.sync.Epochs)
	L["sim.shard_idle_parks_max"] = float64(win.after.sync.MaxIdleParks)
	L["link.queue_pkts_max"] = float64(queueMax)
	L["link.pool_outstanding_end"] = float64(sc.net.PoolOutstanding())
	if sc.shape != nil {
		L["core.insns_per_exec"] = float64(sc.shape.insns)
	}
	L["workload.msgs"] = float64(win.after.msgs - win.before.msgs)
	L["workload.pkts_per_msg"] = ratio(in.genPkts, L["workload.msgs"])
	L["workload.overflow"] = float64(win.after.ovf - win.before.ovf)
	L["telemetry.dropped"] = float64(win.after.pipeDropped - win.before.pipeDropped)
	L["telemetry.batches"] = float64(win.after.pipeBatch - win.before.pipeBatch)
	L["testbed.allocs_per_pkt_hop"] = float64(win.mallocs) / hops
	L["testbed.slice_median_ns_per_pkt_hop"] = Median(slices)
	L["testbed.slice_p90_ns_per_pkt_hop"] = p90(slices)

	costs := runDrivers(w, &in, rec, cfg.scale())
	fillLedger(L, costs, &in, nsHop)
	return prof.shares(L, "")
}

func runChaosWorkload(w *Workload, cfg Config, res *Result, rec *Recorder, ck *checker) error {
	n := int(float64(w.ChaosSeeds)*cfg.scale() + 0.5)
	if n < 1 {
		n = 1
	}
	if cfg.Trace {
		res.Layers = map[string]float64{}
	}
	prof := &cpuProfile{}
	var tot *chaosTotals
	var err error
	if cfg.Trace {
		prof.around(func() { tot, err = runChaos(w, cfg.Seed, n, rec, ck, labelWindow) })
	} else {
		tot, err = runChaos(w, cfg.Seed, n, rec, ck, func(window func()) { window() })
	}
	if err != nil {
		return err
	}
	res.Digest = digestOf(tot.digests)

	hops := float64(tot.pktHops)
	nsHop := float64(tot.wall.Nanoseconds()) / hops
	var setup float64
	for _, s := range tot.setups {
		setup += s
	}
	res.EndToEnd[MetricNsPerPktHop] = nsHop
	res.EndToEnd[MetricSetupS] = setup
	res.EndToEnd[MetricLiveHeapMB] = Median(tot.heaps) / 1e6
	simS := float64(n) * chaosRestore.Seconds() // lower bound: recovery epochs come on top
	res.Info["window_wall_s"] = tot.wall.Seconds()
	res.Info["window_sim_s"] = simS
	res.Info["wall_s_per_sim_s"] = tot.wall.Seconds() / simS
	res.Info["pkt_hops"] = hops
	res.Info["events"] = float64(tot.events)
	res.Info["seeds"] = float64(n)
	res.Info["recovery_misses"] = float64(len(tot.missed90))
	res.RecoveryMissed = tot.missed90
	if !cfg.Trace {
		return nil
	}

	L := res.Layers
	for _, ph := range setupPhases {
		L[ph+"_s"] = rec.Total(ph).Seconds()
	}
	L["testbed.traced_ns_per_pkt_hop"] = nsHop
	e := &tot.end
	in := insitu{
		pktHops: hops, events: float64(tot.events),
		pendingMean: tot.pendingSum / float64(tot.pendingN),
		swRx:        float64(e.swRx), hostTx: float64(e.hostTx), hostRx: float64(e.hostRx),
		sinkPkts: float64(e.sinkPkts),
	}
	var zero counters
	zero.swDrops = map[string]uint64{}
	fillCounts(L, &zero, e, &in)
	L["link.pool_outstanding_end"] = float64(tot.poolLeft)
	L["host.exec_giveups"] = float64(tot.giveups)
	L["faults.injected"] = float64(e.faultsInjected)
	L["apps.rcp_missed_rounds"] = float64(tot.missed)
	L["apps.conga_path_deaths"] = float64(tot.deaths)
	L["apps.recovery_epochs_median"] = Median(tot.epochs)
	L["apps.recovery_misses"] = float64(len(tot.missed90))
	L["testbed.allocs_per_pkt_hop"] = float64(tot.mallocs) / hops
	L["testbed.slice_median_ns_per_pkt_hop"] = Median(tot.perSeedNs)
	L["testbed.slice_p90_ns_per_pkt_hop"] = p90(tot.perSeedNs)

	costs := runDrivers(w, &in, rec, cfg.scale())
	fillLedger(L, costs, &in, nsHop)
	return prof.shares(L, "window")
}

// insitu holds the in-situ call counts of the measured window — how often
// each layer's entry point ran — that the ledger multiplies driver costs by.
type insitu struct {
	pktHops, events, pendingMean float64
	swRx, execs, hostTx, hostRx  float64
	flowPkts, sinkPkts, genPkts  float64
	records, captured, crossings float64
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// fillCounts emits the in-situ count metrics that are plain differences of
// two scrapes.
func fillCounts(L map[string]float64, b, a *counters, in *insitu) {
	var local float64
	for _, r := range localDropReasons {
		local += float64(a.swDrops[r] - b.swDrops[r])
	}
	drops := float64(a.linkDrops - b.linkDrops)
	L["sim.events_per_pkt_hop"] = in.events / in.pktHops
	L["sim.pending_mean"] = in.pendingMean
	L["sim.shard_crossings_per_pkt_hop"] = in.crossings / in.pktHops
	L["link.pkt_hops"] = in.pktHops
	L["link.drop_share"] = ratio(drops, in.pktHops+drops)
	L["link.queue_pkts_max"] = float64(a.queueMax)
	L["link.pool_news_per_pkt_hop"] = float64(a.poolNews-b.poolNews) / in.pktHops
	L["device.drop_share"] = ratio(local, in.swRx)
	L["core.execs_per_pkt_hop"] = in.execs / in.pktHops
	L["host.tpp_attached_share"] = ratio(float64(a.attached-b.attached), in.hostTx)
	L["host.mtu_skips"] = float64(a.mtuSkips - b.mtuSkips)
	L["transport.delivered_share"] = ratio(in.sinkPkts, in.hostTx)
	L["telemetry.records_per_pkt_hop"] = in.records / in.pktHops
}

// MetricDef declares one per-layer metric.
type MetricDef struct{ Name, Unit, Better string }

// LayerMetrics lists every per-layer metric a traced run emits, in report
// order; BENCHMARK.json's per_layer section is exactly this list.
var LayerMetrics = layerMetricDefs()

func layerMetricDefs() []MetricDef {
	var out []MetricDef
	add := func(unit, better string, names ...string) {
		for _, n := range names {
			out = append(out, MetricDef{n, unit, better})
		}
	}
	add("count", "lower", "sim.events_per_pkt_hop", "sim.pending_mean",
		"sim.shard_crossings_per_pkt_hop", "sim.shard_drains_per_crossing",
		"sim.shard_sync_points", "sim.shard_idle_parks_max")
	add("count", "higher", "link.pkt_hops")
	add("count", "lower", "link.drop_share", "link.queue_pkts_max",
		"link.pool_news_per_pkt_hop", "link.pool_outstanding_end", "device.drop_share",
		"core.execs_per_pkt_hop", "core.insns_per_exec")
	add("count", "higher", "host.tpp_attached_share")
	add("count", "lower", "host.mtu_skips", "host.exec_giveups")
	add("count", "higher", "transport.delivered_share", "workload.msgs")
	add("count", "lower", "workload.pkts_per_msg", "workload.overflow",
		"telemetry.records_per_pkt_hop", "telemetry.dropped", "telemetry.batches",
		"faults.injected", "apps.rcp_missed_rounds", "apps.conga_path_deaths",
		"apps.recovery_epochs_median", "apps.recovery_misses",
		"testbed.allocs_per_pkt_hop")
	add("ns", "lower", "testbed.slice_median_ns_per_pkt_hop", "testbed.slice_p90_ns_per_pkt_hop",
		"testbed.traced_ns_per_pkt_hop")
	for _, ph := range setupPhases {
		add("s", "lower", ph+"_s")
	}
	add("B", "lower", "topo.route_bytes_per_node")
	add("ns", "lower", driverMetricNames...)
	for _, l := range ledgerLayers {
		add("ns", "lower", l+".ns_per_pkt_hop")
	}
	add("%", "lower", "testbed.attribution_residual_pct")
	for _, b := range profileBuckets {
		add("%", "lower", "cpu_share."+b)
	}
	add("count", "lower", "testbed.digest_drift")
	return out
}

// fillZeros makes a traced result carry every declared per-layer metric,
// so each workload emits exactly the names BENCHMARK.json lists.
func fillZeros(L map[string]float64) {
	for _, m := range LayerMetrics {
		if _, ok := L[m.Name]; !ok {
			L[m.Name] = 0
		}
	}
}

// SortedKeys returns m's keys in order, for stable printing.
func SortedKeys(m map[string]float64) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}
