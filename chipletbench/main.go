// Command chipletbench is chipletd's end-to-end and per-layer performance
// benchmark. It starts a freshly built chipletd child process at its
// defaults, drives it with one closed-loop generator of two connections
// over a fixed, seeded request sequence, checks every answer it can afford
// to recompute in-process, and prints one JSON result line.
//
// Run it from the repository root through the wrapper, which builds
// chipletd and this program into .bench_build first:
//
//	bash chipletbench/run.sh --workload solve-cold --seed 1 --seconds 20 --trace 0
//
// Workloads (see BENCHMARK.json for why each exists):
//
//   - solve-cold: distinct POST /v1/thermal/solve requests at the serving
//     defaults (64x64 grid); every request misses the result cache and the
//     engine memo.
//   - search-sweep: distinct POST /v1/org/search requests at the search's
//     default 32x32 grid and the daemon's default fidelity tier, all
//     sharing one engine memo per benchmark.
//   - search-spatial: search-sweep with half of the searches on the
//     spatial surrogate tier. It is not in BENCHMARK.json, because that
//     tier can return winners that are over threshold at full fidelity;
//     run it to reproduce and count them.
//   - sweep-warm: POST /v1/batch requests of a few hundred solve and TCO
//     items over a warm working set plus a TCO key space larger than the
//     result cache.
//
// --trace 0 prints the end-to-end metrics. --trace 1 runs the same load,
// then times each layer in-process by calling its public functions on the
// same generated inputs, and prints the per-layer metrics, the solve
// reconciliation residual and the tracing overhead.
//
// --steady N is the steadiness self-check: it re-runs this program N times
// per workload with seeds 1..N and prints each end-to-end metric's median
// and quartile spread next to its BENCHMARK.json bound.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
)

// options are the command-line settings of one benchmark run.
type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
}

// binDir holds the binaries chipletbench/run.sh builds, relative to the
// repository root the benchmark runs from.
const binDir = ".bench_build"

func main() {
	var (
		o      options
		trace  int
		steady int
	)
	flag.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	flag.Int64Var(&o.seed, "seed", 1, "seed for the generated request sequence")
	flag.IntVar(&o.seconds, "seconds", 20, "nominal measured-phase length; sets the fixed op count")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced per-layer probes after the load")
	flag.IntVar(&steady, "steady", 0, "steadiness self-check: run every workload this many times and report spreads")
	flag.Parse()
	o.trace = trace == 1

	if steady > 0 {
		if err := runSteady(steady, o); err != nil {
			fatalf("steady: %v", err)
		}
		return
	}
	if o.seconds < 1 {
		fatalf("--seconds must be at least 1")
	}
	w, ok := workloads[o.workload]
	if !ok {
		fatalf("unknown --workload %q (want one of %s)", o.workload, strings.Join(workloadNames(), ", "))
	}
	res, err := run(o, w)
	if err != nil {
		fatalf("%s: %v", o.workload, err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatalf("encode result: %v", err)
	}
	fmt.Println(string(line))
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "chipletbench: "+format+"\n", args...)
	os.Exit(1)
}

// result is the JSON line the benchmark prints last.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
