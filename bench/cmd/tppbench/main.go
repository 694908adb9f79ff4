// Command tppbench is the repository's benchmark.
//
// With -workload it performs one run in this process — one workload, one
// seed — prints every metric by name with its unit, checks the run's
// outputs and ends with one JSON line:
//
//	tppbench -workload cbr-tpp -seed 1 -seconds 3 -trace 0
//
// Without -workload it runs all workloads: it re-executes itself once per
// (workload, round) so heap, GC state and setup_s start clean, interleaves
// the workloads round-robin, and reports median, quartiles, min and max per
// metric with the machine stamp:
//
//	tppbench                 # 5 rounds of 8 workloads
//	tppbench -trace 1        # plus the traced round: ledger, cpu_share, trace files
//	tppbench -agree          # two full sets; fails unless their medians agree
//	tppbench -only dcmix     # development
//
// It exits non-zero when a check fails, digests differ between rounds or
// between the fabric-k16 pair, or -agree finds a disagreement.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"

	"minions/bench"
)

// outDir receives trace-<workload>.json, report.json and digests.json (the
// digests just observed, in the format of bench/digests.json: copy it there
// to re-pin after a deliberate behaviour change); it is relative to the
// working directory (the checkout root) and ignored by git.
const outDir = ".bench_out"

func main() {
	// Two shards need two processors to run in parallel; more would only
	// add scheduler noise on a small box. Must precede any network build.
	runtime.GOMAXPROCS(2)

	workload := flag.String("workload", "", "run this one workload in-process and print its result line")
	seed := flag.Int64("seed", 1, "workload seed; every input is generated from it")
	seconds := flag.Float64("seconds", bench.NominalSeconds, "run length: scales the fixed simulated window")
	trace := flag.Int("trace", 0, "1 = traced run (per-layer metrics, ledger, trace file); 0 = end-to-end metrics")
	rounds := flag.Int("rounds", 5, "untraced rounds per workload (all-workloads mode)")
	only := flag.String("only", "", "restrict all-workloads mode to this workload")
	agree := flag.Bool("agree", false, "run two full sets and fail unless every end-to-end median agrees within its bound")
	flag.Parse()
	if flag.NArg() > 0 {
		fatal(fmt.Errorf("unexpected argument %q", flag.Arg(0)))
	}

	if *workload != "" {
		os.Exit(single(bench.Config{Workload: *workload, Seed: *seed, Seconds: *seconds,
			Trace: *trace != 0, OutDir: outDir}))
	}

	var names []string
	for _, w := range bench.Workloads {
		if *only == "" || *only == w.Name {
			names = append(names, w.Name)
		}
	}
	if len(names) == 0 {
		fatal(fmt.Errorf("no workload named %q", *only))
	}
	set := func() *bench.Report {
		rep, err := runSet(names, *seed, *seconds, *rounds, *trace != 0)
		if err != nil {
			fatal(err)
		}
		rep.Print(os.Stdout)
		return rep
	}
	first := set()
	problems := first.Problems
	if *agree {
		fmt.Println("\n--- second set ---")
		second := set()
		problems = append(problems, second.Problems...)
		dis := bench.Disagreements(first, second)
		for _, d := range dis {
			fmt.Println("DISAGREE:", d)
		}
		if len(dis) == 0 {
			fmt.Println("agree: every end-to-end median within its bound, every deterministic count identical")
		}
		problems = append(problems, dis...)
	}
	if err := writeJSON(outDir+"/report.json", first); err != nil {
		fatal(err)
	}
	if err := writeJSON(outDir+"/digests.json", first.Pins()); err != nil {
		fatal(err)
	}
	if len(problems) > 0 {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "tppbench:", err)
	os.Exit(2)
}

// single performs one run and prints its report; the last line of standard
// output is the result object the benchmark contract defines.
func single(cfg bench.Config) int {
	res, err := bench.Run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tppbench:", err)
		return 2
	}
	fmt.Printf("tppbench %s seed=%d seconds=%g trace=%v  (%s)\n",
		res.Workload, res.Seed, res.Seconds, res.Traced, stampLine())
	metrics := res.EndToEnd
	if cfg.Trace {
		metrics = res.Layers
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := map[string]value{}
	for _, name := range bench.SortedKeys(metrics) {
		fmt.Printf("%-42s %14.6g %s\n", name, metrics[name], bench.Units(name))
		out[name] = value{metrics[name], bench.Units(name)}
	}
	for _, name := range bench.SortedKeys(res.Info) {
		fmt.Printf("%-42s %14.6g (informational)\n", name, res.Info[name])
	}
	fmt.Printf("checks_total %d checks_failed %d digest %s pinned %q\n",
		res.ChecksTotal, res.ChecksFailed, res.Digest, res.Pinned)
	for _, f := range res.Failures {
		fmt.Println("FAILED:", f)
	}
	for _, seed := range res.RecoveryMissed {
		fmt.Printf("RECOVERY MISSED: seed %d: RCP* aggregate never regained 90%% of baseline (not counted in checks_failed)\n", seed)
	}
	detail, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tppbench:", err)
		return 2
	}
	fmt.Printf("detail %s\n", detail)
	last, err := json.Marshal(map[string]any{
		"correct":   res.ChecksFailed == 0,
		"attempted": res.ChecksTotal,
		"failed":    res.ChecksFailed,
		"metrics":   out,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "tppbench:", err)
		return 2
	}
	fmt.Println(string(last))
	if res.ChecksFailed > 0 {
		return 1
	}
	return 0
}

func stampLine() string {
	m := bench.Stamp()
	return fmt.Sprintf("%s, nproc %d, GOMAXPROCS %d, %s, commit %s", m.CPU, m.NumCPU, m.GOMAXPROCS, m.GoVersion, m.Commit)
}

// runSet runs rounds × workloads strictly sequentially, one OS process per
// run, workloads interleaved round-robin, then (traced) one traced run per
// workload; it returns the aggregate.
func runSet(names []string, seed int64, seconds float64, rounds int, traced bool) (*bench.Report, error) {
	var runs []*bench.Result
	for r := 0; r < rounds; r++ {
		for _, name := range names {
			res, err := child(name, seed, seconds, 0)
			if err != nil {
				return nil, err
			}
			runs = append(runs, res)
			fmt.Fprintf(os.Stderr, "round %d %-20s seed %d: %8.2f ns/pkt-hop, set-up %.3f s, heap %.1f MB, checks %d/%d\n",
				r+1, name, seed, res.EndToEnd[bench.MetricNsPerPktHop], res.EndToEnd[bench.MetricSetupS],
				res.EndToEnd[bench.MetricLiveHeapMB], res.ChecksTotal-res.ChecksFailed, res.ChecksTotal)
		}
	}
	if traced {
		for _, name := range names {
			res, err := child(name, seed, seconds, 1)
			if err != nil {
				return nil, err
			}
			runs = append(runs, res)
			fmt.Fprintf(os.Stderr, "traced  %-20s seed %d: %s\n", name, seed, res.TraceFile)
		}
	}
	return bench.Aggregate(runs, bench.Stamp()), nil
}

// child re-executes this binary for one run and decodes its detail line.
func child(name string, seed int64, seconds float64, trace int) (*bench.Result, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self, "-workload", name, "-seed", fmt.Sprint(seed),
		"-seconds", fmt.Sprint(seconds), "-trace", fmt.Sprint(trace))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	// Exit status 1 means failed checks: the detail line still describes
	// the run, and the report counts the failures.
	var exit *exec.ExitError
	if err != nil && !(errors.As(err, &exit) && exit.ExitCode() == 1) {
		return nil, fmt.Errorf("%s seed %d: %w", name, seed, err)
	}
	for _, line := range bytes.Split(out, []byte("\n")) {
		if rest, ok := bytes.CutPrefix(line, []byte("detail ")); ok {
			res := &bench.Result{}
			if err := json.Unmarshal(rest, res); err != nil {
				return nil, fmt.Errorf("%s seed %d: decoding detail: %w", name, seed, err)
			}
			return res, nil
		}
	}
	return nil, fmt.Errorf("%s seed %d: run printed no detail line", name, seed)
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
