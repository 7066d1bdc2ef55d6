// Command bench is the repository's study-scale benchmark: seven named
// workloads run through launcher.New(cfg).Run(), every metric printed by name
// and unit, the statistics of every study checked against a reference fold,
// and — in a separate traced pass — per-layer numbers and a CPU budget.
//
// Run it from the repository root through bench/run.sh:
//
//	bash bench/run.sh --workload flood_mem --seed 1 --seconds 10 --trace 0   one run, result as the last line
//	bash bench/run.sh -runs 5 -traced -json set1.json                        the whole suite
//	bash bench/run.sh -compare set1.json set2.json                           two suites against the bounds
//
// See README.md in this directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"maps"
	"os"
	"runtime"
	"slices"

	olog "melissa/internal/obs/log"
)

func main() {
	var (
		name    = flag.String("workload", "", "workload to run (default: all)")
		seed    = flag.Int64("seed", 1, "workload seed; the same seed gives the same inputs")
		seconds = flag.Float64("seconds", 10, "how long one run measures")
		trace   = flag.Int("trace", 0, "run one measurement in this process: 0 prints the end-to-end metrics, 1 the per-layer metrics")
		runs    = flag.Int("runs", 5, "suite: untraced runs per workload, each a fresh process with its own seed")
		traced  = flag.Bool("traced", false, "suite: add one traced run per workload and print its budget table")
		jsonOut = flag.String("json", "", "suite: also write every result to this file")
		compare = flag.Bool("compare", false, "compare two -json files: bench -compare a.json b.json")
	)
	flag.Parse()
	single := false
	flag.Visit(func(f *flag.Flag) { single = single || f.Name == "trace" })

	var err error
	switch {
	case *compare:
		if flag.NArg() != 2 {
			err = fmt.Errorf("usage: bench -compare a.json b.json")
			break
		}
		err = compareFiles(flag.Arg(0), flag.Arg(1))
	case single:
		err = runSingle(*name, uint64(*seed), *seconds, *trace == 1)
	default:
		err = runSuite(*name, uint64(*seed), *seconds, *runs, *traced, *jsonOut)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// runSingle is one (workload, run) in this process. The last line of its
// output is the result object; a failed correctness gate also fails the exit
// code.
func runSingle(name string, seed uint64, seconds float64, traced bool) error {
	w, ok := workloadByName(name)
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	// The one library default the benchmark overrides: logs go quiet.
	olog.Default.SetLevel(olog.Error)
	fmt.Printf("bench %s: seed %d, %.0f s, traced %v, GOMAXPROCS %d, %d groups of %d members per study, %d cells × %d steps\n",
		w.name, seed, seconds, traced, runtime.GOMAXPROCS(0), w.groups, w.p+2, w.cells, w.steps)
	r, err := runOnce(w, seed, seconds, traced)
	if err != nil {
		return err
	}
	for _, n := range slices.Sorted(maps.Keys(r.Metrics)) {
		fmt.Printf("  %-36s %14.6g %s\n", n, r.Metrics[n].Value, r.Metrics[n].Unit)
	}
	if !traced {
		fmt.Printf("  (medians over %d studies)\n", r.reps)
	}
	fmt.Print(r.budget)
	for _, p := range r.problems {
		fmt.Println("  GATE FAILED:", p)
	}
	line, err := json.Marshal(r)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !r.Correct {
		return fmt.Errorf("%s: correctness gate failed", w.name)
	}
	return nil
}
