package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
)

// suiteFile is what -json writes and -compare reads.
type suiteFile struct {
	Host      hostInfo                 `json:"host"`
	Seed      uint64                   `json:"seed"`
	Seconds   float64                  `json:"seconds"`
	Workloads map[string]*workloadRuns `json:"workloads"`
}

type hostInfo struct {
	GOOS, GOARCH, GoVersion string
	NumCPU, GOMAXPROCS      int
}

// workloadRuns holds every run of one workload: the untraced runs' result
// lines in run order, and the traced run's.
type workloadRuns struct {
	Runs   []runResult `json:"runs"`
	Traced *runResult  `json:"traced,omitempty"`
}

// values returns one end-to-end metric across the untraced runs.
func (wr *workloadRuns) values(name string) []float64 {
	var vs []float64
	for _, r := range wr.Runs {
		if m, ok := r.Metrics[name]; ok {
			vs = append(vs, m.Value)
		}
	}
	return vs
}

// quartiles returns the first quartile, median and third quartile of a sample
// the way Python's statistics.quantiles(values, n=4) does (exclusive method).
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0, 0, 0
	}
	if n == 1 {
		return s[0], s[0], s[0]
	}
	at := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4 // 1-based rank
		j := int(pos)
		j = min(max(j, 1), n-1)
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return at(1), at(2), at(3)
}

// child runs one (workload, run) in a fresh process — the binary re-executes
// itself — so heap, obs registry, CPU time and peak RSS belong to that run
// alone. It returns the parsed result line and everything printed before it.
func child(name string, seed uint64, seconds float64, trace int) (*runResult, string, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, "", err
	}
	cmd := exec.Command(exe, "--workload", name, "--seed", fmt.Sprint(int64(seed)),
		"--seconds", fmt.Sprint(seconds), "--trace", fmt.Sprint(trace))
	cmd.Stderr = os.Stderr
	out, runErr := cmd.Output()
	text := strings.TrimRight(string(out), "\n")
	last := text[strings.LastIndexByte(text, '\n')+1:]
	var r runResult
	if err := json.Unmarshal([]byte(last), &r); err != nil {
		if runErr != nil {
			return nil, text, fmt.Errorf("%s seed %d: %w", name, seed, runErr)
		}
		return nil, text, fmt.Errorf("%s seed %d: no result line: %w", name, seed, err)
	}
	return &r, strings.TrimSuffix(text, last), nil
}

// runSuite runs every workload (or the named one): runs untraced child
// processes with consecutive seeds, then optionally one traced child, and
// prints each end-to-end metric as median and quartiles with its sample count.
func runSuite(only string, seed uint64, seconds float64, runs int, traced bool, jsonPath string) error {
	file := suiteFile{
		Host: hostInfo{runtime.GOOS, runtime.GOARCH, runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0)},
		Seed: seed, Seconds: seconds,
		Workloads: map[string]*workloadRuns{},
	}
	if _, ok := workloadByName(only); only != "" && !ok {
		return fmt.Errorf("unknown workload %q", only)
	}
	fmt.Printf("bench suite: seed %d, %d runs of %.0f s per workload, %d CPUs, GOMAXPROCS %d, %s\n",
		seed, runs, seconds, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
	failed := false
	for _, w := range workloads {
		if only != "" && w.name != only {
			continue
		}
		wr := &workloadRuns{}
		file.Workloads[w.name] = wr
		fmt.Printf("\n%s — %s\n", w.name, w.why)
		attempted, failures := 0, 0
		for i := 0; i < runs; i++ {
			r, _, err := child(w.name, seed+uint64(i), seconds, 0)
			if err != nil {
				return err
			}
			wr.Runs = append(wr.Runs, *r)
			attempted += r.Attempted
			failures += r.Failed
			failed = failed || !r.Correct
		}
		for _, def := range endToEndMetrics {
			q1, med, q3 := quartiles(wr.values(def.name))
			fmt.Printf("  %-18s %12.6g %-5s median of %d runs   quartiles %.6g … %.6g   spread %.3f   bound %.2f\n",
				def.name, med, def.unit, len(wr.Runs), q1, q3, (q3-q1)/med, def.bound)
		}
		fmt.Printf("  %-18s %12.6g %-5s %d failed of %d groups attempted\n",
			"fail_share", float64(failures)/float64(max(attempted, 1)), "ratio", failures, attempted)
		if !traced {
			continue
		}
		r, text, err := child(w.name, seed, seconds, 1)
		if err != nil {
			return err
		}
		wr.Traced = r
		failed = failed || !r.Correct
		if i := strings.Index(text, "budget "); i >= 0 {
			fmt.Print(text[i:])
		}
		_, wall, _ := quartiles(wr.values("study_wall_s"))
		fmt.Printf("  trace.overhead_share %.3f (traced wall %.3f s / untraced median %.3f s − 1)\n",
			r.Metrics["trace.study_wall_s"].Value/wall-1, r.Metrics["trace.study_wall_s"].Value, wall)
	}
	if crash, paced := file.Workloads["crash_resume_mem"], file.Workloads["paced_durable_mem"]; crash != nil && paced != nil {
		_, cw, _ := quartiles(crash.values("study_wall_s"))
		_, pw, _ := quartiles(paced.values("study_wall_s"))
		fmt.Printf("\nrecovery cost: crash_resume_mem − paced_durable_mem median study_wall_s = %.3f s\n", cw-pw)
	}
	if jsonPath != "" {
		var buf bytes.Buffer
		e := json.NewEncoder(&buf)
		e.SetIndent("", " ")
		if err := e.Encode(file); err != nil {
			return err
		}
		if err := os.WriteFile(jsonPath, buf.Bytes(), 0o644); err != nil {
			return err
		}
	}
	if failed {
		return fmt.Errorf("a run failed the correctness gate")
	}
	return nil
}

// compareFiles prints, per workload and end-to-end metric, both medians and
// quartiles and the relative difference against the bound. A metric whose own
// spread exceeds its bound in either set is unresolved, not unchanged — except
// setup_s, whose sub-millisecond values the benchmark contract exempts from
// the spread rule. Any breach fails the command.
func compareFiles(pathA, pathB string) error {
	load := func(path string) (*suiteFile, error) {
		raw, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var f suiteFile
		if err := json.Unmarshal(raw, &f); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		return &f, nil
	}
	a, err := load(pathA)
	if err != nil {
		return err
	}
	b, err := load(pathB)
	if err != nil {
		return err
	}
	breaches, unresolved := 0, 0
	fmt.Printf("%-18s %-17s %34s %34s %8s %6s\n", "workload", "metric",
		"A median [q1 … q3] n", "B median [q1 … q3] n", "worse by", "bound")
	for _, w := range workloads {
		ra, rb := a.Workloads[w.name], b.Workloads[w.name]
		if ra == nil || rb == nil {
			continue
		}
		for _, def := range endToEndMetrics {
			va, vb := ra.values(def.name), rb.values(def.name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			a1, am, a3 := quartiles(va)
			b1, bm, b3 := quartiles(vb)
			worse := (bm - am) / am
			if def.better == "higher" {
				worse = -worse
			}
			verdict := "ok"
			switch {
			case def.name != "setup_s" && ((a3-a1)/am > def.bound || (b3-b1)/bm > def.bound):
				verdict = "UNRESOLVED (spread exceeds the bound)"
				unresolved++
			case worse > def.bound:
				verdict = "BREACH"
				breaches++
			}
			fmt.Printf("%-18s %-17s %12.5g [%.5g … %.5g] %d %12.5g [%.5g … %.5g] %d %+7.1f%% %5.0f%%  %s\n",
				w.name, def.name, am, a1, a3, len(va), bm, b1, b3, len(vb), 100*worse, 100*def.bound, verdict)
		}
	}
	fmt.Printf("%d breaches, %d unresolved\n", breaches, unresolved)
	if breaches > 0 {
		return fmt.Errorf("%d end-to-end metrics got worse by more than their bound", breaches)
	}
	return nil
}
