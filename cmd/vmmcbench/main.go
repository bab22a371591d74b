// Command vmmcbench regenerates the figures and tables of the paper's
// evaluation (§5-§7) on the simulated platform, plus the repo's
// extension sweeps.
//
// Usage:
//
//	vmmcbench                         # run everything
//	vmmcbench -experiment fig3        # one experiment
//	vmmcbench -deterministic          # the RESULTS.txt set (no scalesweep)
//	vmmcbench -list                   # list experiment ids
//	vmmcbench -experiment headline -trace t.json -metrics m.json
//
// Experiments live in the registry in registry.go; `-list` prints the
// ids. Deterministic experiments print only virtual-time-derived
// quantities, so their output is byte-identical across runs and
// machines; `-deterministic` runs exactly that set in registry order,
// which is how RESULTS.txt is regenerated (a golden test pins the
// checked-in file against the registry). scalesweep reports wall-clock
// events/sec and is the one exclusion.
//
// Sweeps read their own flags: scalesweep takes -scale-nodes and
// -scale-out (BENCH_scale.json), healsweep takes -heal-outages and
// -heal-out (BENCH_heal.json), collsweep takes -coll-nodes and
// -coll-out (BENCH_coll.json), servesweep takes -serve-rates,
// -serve-shards, -serve-requests and -serve-out (BENCH_serve.json),
// replicasweep takes -replica-r, -replica-rates, -replica-requests and
// -replica-out (BENCH_replica.json). Every sweep artifact is
// byte-identical across runs — each sweep re-runs a cell and fails on
// drift.
//
// With -trace, each run records structured events over virtual time and
// writes a Chrome trace_event JSON file (open in chrome://tracing or
// Perfetto). With -metrics, the run's final metrics snapshot (counters,
// gauges, utilizations) is written as JSON. Either flag also prints a
// short metrics summary after each experiment. Traces carry only virtual
// timestamps, so two runs of the same experiment produce byte-identical
// artifacts. See docs/OBSERVABILITY.md.
//
// Every experiment additionally streams its trace events through the
// bottleneck analyzer (internal/analysis); each sweep prints the
// analyzer's one-line verdict and embeds the full report in its JSON
// artifact. -analyze prints the ranked top-k resource table after each
// experiment, and -analyze-out writes the report JSON (last run wins).
// See docs/ANALYSIS.md.
//
// -cpuprofile and -memprofile write pprof profiles of the simulator
// itself (wall-clock cost, not modeled time): a CPU profile of the whole
// invocation and a heap profile taken after the last experiment. Read
// them with `go tool pprof`; see docs/PERFORMANCE.md.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"

	"repro/internal/bench"
)

func main() { os.Exit(run()) }

// run executes the command and returns its exit code. It returns rather
// than exiting so that the deferred profile writers finish first.
func run() int {
	var (
		id       = flag.String("experiment", "", "experiment id to run (default: all)")
		detOnly  = flag.Bool("deterministic", false, "run only experiments with byte-identical output (the RESULTS.txt set)")
		list     = flag.Bool("list", false, "list experiment ids and exit")
		tracePth = flag.String("trace", "", "write a Chrome trace_event JSON artifact here")
		metrPth  = flag.String("metrics", "", "write a metrics snapshot JSON artifact here")
		traceCap = flag.Int("trace-capacity", 0, "trace ring buffer size in events (0 = default)")
		analyze  = flag.Bool("analyze", false, "print the full bottleneck analysis table after each experiment")
		analyOut = flag.String("analyze-out", "", "write the bottleneck analysis report JSON here (last run wins)")
		cpuProf  = flag.String("cpuprofile", "", "write a pprof CPU profile of the run here")
		memProf  = flag.String("memprofile", "", "write a pprof heap profile here after the run")
	)
	flag.Parse()

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fmt.Fprintf(os.Stderr, "vmmcbench: cpuprofile: %v\n", err)
			return 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			fmt.Fprintf(os.Stderr, "vmmcbench: cpuprofile: %v\n", err)
			return 1
		}
		defer func() {
			pprof.StopCPUProfile()
			if err := f.Close(); err != nil {
				fmt.Fprintf(os.Stderr, "vmmcbench: cpuprofile: %v\n", err)
			}
		}()
	}
	if *memProf != "" {
		defer writeHeapProfile(*memProf)
	}

	if *list {
		for _, e := range experiments {
			mark := " "
			if e.deterministic {
				mark = "*"
			}
			fmt.Printf("%s %-12s %s\n", mark, e.id, e.what)
		}
		fmt.Println("\n* = deterministic output, pinned in RESULTS.txt")
		return 0
	}
	observing := *tracePth != "" || *metrPth != ""
	bench.SetObservability(bench.Observability{
		TracePath:     *tracePth,
		MetricsPath:   *metrPth,
		TraceCapacity: *traceCap,
		AnalysisPath:  *analyOut,
	})
	ran, err := runExperiments(os.Stdout, *id, *detOnly, observing, *analyze)
	if err != nil {
		fmt.Fprintf(os.Stderr, "vmmcbench: %v\n", err)
		return 1
	}
	if !ran {
		fmt.Fprintf(os.Stderr, "vmmcbench: unknown experiment %q (try -list)\n", *id)
		return 2
	}
	return 0
}

// writeHeapProfile writes a pprof heap profile to path, reporting any
// failure on stderr: the experiments have already run and printed.
func writeHeapProfile(path string) {
	f, err := os.Create(path)
	if err == nil {
		runtime.GC() // up-to-date statistics of what is still live
		err = pprof.WriteHeapProfile(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "vmmcbench: memprofile: %v\n", err)
	}
}
