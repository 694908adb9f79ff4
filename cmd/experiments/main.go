// Command experiments regenerates every table and figure of the paper's
// evaluation from the simulation and models in this repository.
//
// Usage:
//
//	experiments -run all
//	experiments -run fig1,fig2,fig4,fig10,tbl3,tbl4,tbl5,sec21,sec22,sec23,sec25
//	experiments -run wl-fig1,wl-rcp   # paper apps under minions/workload specs
//	experiments -quick        # smaller workloads for a fast pass
//	experiments -run fig1 -cpuprofile cpu.pprof -memprofile mem.pprof
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"minions/testbed"
	"minions/workload"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run executes the selected experiments and returns the process exit code
// (2 for a command line it rejects); it exists so deferred profile writers
// flush before exit, and so the tests can drive the command in-process.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	fs.SetOutput(stderr)
	runList := fs.String("run", "all", "comma-separated experiment ids")
	quick := fs.Bool("quick", false, "scale workloads down for a fast pass")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := fs.String("memprofile", "", "write a heap profile to this file on exit")
	shards := fs.Int("shards", 1, "topology shards for the simulation-driven figures (fig1, fig2, fig4); results are byte-identical to -shards 1")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	// Profiling hooks so perf work can profile the exact experiment
	// workloads: go tool pprof ./experiments cpu.pprof
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintln(stderr, "cpuprofile:", err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(stderr, "cpuprofile:", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintln(stderr, "memprofile:", err)
				return
			}
			defer f.Close()
			runtime.GC() // materialize up-to-date heap statistics
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(stderr, "memprofile:", err)
			}
		}()
	}

	// The section calls below are the one list of experiment ids: each
	// registers its runner under its heading — one id, or several joined by
	// "+" when one table answers to any of them — and the -run selector is
	// checked against what they registered before anything runs.
	type experiment struct {
		heading string
		ids     []string
		fn      func() (string, error)
	}
	var experiments []experiment
	section := func(heading string, fn func() (string, error)) {
		experiments = append(experiments, experiment{heading, strings.Split(heading, "+"), fn})
	}

	simSecs := testbed.Time(8) * testbed.Second
	benchPkts := 400_000
	if *quick {
		simSecs = 3 * testbed.Second
		benchPkts = 100_000
	}

	section("sec21", func() (string, error) { return testbed.Sec21Table(), nil })
	section("fig1", func() (string, error) {
		r, err := testbed.RunFig1(testbed.Fig1Config{Duration: simSecs / 4, Shards: *shards})
		if err != nil {
			return "", err
		}
		return r.Table(), nil
	})
	section("fig2", func() (string, error) {
		r, err := testbed.RunFig2(simSecs, testbed.SimOpts{Seed: 1, Shards: *shards})
		if err != nil {
			return "", err
		}
		return r.Table(), nil
	})
	// Workload-axis reruns: the same paper apps driven by minions/workload
	// specs instead of the paper's all-to-all pattern. EXPERIMENTS.md's
	// "Workloads" section records these tables and explains the shifts.
	section("wl-fig1", func() (string, error) {
		incast := &workload.Spec{Groups: []workload.Group{{
			Name: "incast",
			Incast: &workload.IncastSpec{
				Aggregators:   []int{0, 1},
				FanIn:         3,
				ResponseBytes: 20_000,
				Period:        2 * testbed.Millisecond,
				Jitter:        500 * testbed.Microsecond,
			},
		}}}
		r, err := testbed.RunFig1Workload(incast, testbed.Fig1Config{Duration: simSecs / 4, Shards: *shards})
		if err != nil {
			return "", err
		}
		return r.Table(), nil
	})
	section("wl-rcp", func() (string, error) {
		r, err := testbed.RunRCPWorkload(simSecs/2, testbed.SimOpts{Seed: 1, Shards: *shards}, testbed.WorkloadHeavyTail(0.15))
		if err != nil {
			return "", err
		}
		return r.Table(), nil
	})
	section("sec22", func() (string, error) {
		counts := []int{3, 30, 99}
		if *quick {
			counts = []int{3, 30}
		}
		rows, err := testbed.RunSec22(counts, simSecs/2, 1)
		if err != nil {
			return "", err
		}
		return testbed.Sec22Table(rows), nil
	})
	section("sec23", func() (string, error) {
		r, err := testbed.RunSec23()
		if err != nil {
			return "", err
		}
		return r.Table(), nil
	})
	section("fig4", func() (string, error) {
		r, err := testbed.RunFig4(simSecs/2, testbed.SimOpts{Seed: 1, Shards: *shards})
		if err != nil {
			return "", err
		}
		return r.Table(), nil
	})
	section("sec25", func() (string, error) {
		r, err := testbed.RunSec25()
		if err != nil {
			return "", err
		}
		return r.Table(), nil
	})
	section("tbl3+tbl4", func() (string, error) { return testbed.HardwareTables(), nil })
	section("fig10", func() (string, error) { return testbed.RunFig10(benchPkts) })
	section("tbl5", func() (string, error) { return testbed.RunTable5(benchPkts) })

	valid := map[string]bool{"all": true}
	names := []string{"all"}
	for _, e := range experiments {
		for _, id := range e.ids {
			valid[id] = true
		}
		names = append(names, e.ids...)
	}
	sel := map[string]bool{}
	for _, id := range strings.Split(*runList, ",") {
		id = strings.TrimSpace(id)
		if !valid[id] {
			fmt.Fprintf(stderr, "experiments: unknown experiment id %q in -run; valid ids: %s\n",
				id, strings.Join(names, " "))
			return 2
		}
		sel[id] = true
	}

	failed := false
	for _, e := range experiments {
		want := sel["all"]
		for _, id := range e.ids {
			want = want || sel[id]
		}
		if !want {
			continue
		}
		out, err := e.fn()
		if err != nil {
			fmt.Fprintf(stderr, "%s: %v\n", e.heading, err)
			failed = true
			continue
		}
		fmt.Fprintf(stdout, "==== %s ====\n%s\n", e.heading, out)
	}
	if failed {
		return 1
	}
	return 0
}
