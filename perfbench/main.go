// Command perfbench is the repository benchmark. It runs one named workload
// for a fixed time, checks the program's outputs, and prints the workload's
// metrics as the last line of standard output:
//
//	{"correct": true, "attempted": 374, "failed": 0, "metrics": {"wall_s": {"value": 23.1, "unit": "s"}, ...}}
//
// With -trace 0 the metrics are the end-to-end ones of BENCHMARK.json; with
// -trace 1 they are the per-layer ones, from a separate traced pass (spans
// recorded around each call into a layer, plus a CPU profile totalled per
// package with go tool pprof).
//
// Workloads:
//
//	figures-all  every experiment of the paper's evaluation at BenchScale
//	sim-full     ATAX and PVC under L1-SRAM and Dy-FUSE on the 15-SM GPU
//	serve-mixed  a closed-loop client against a real fuseserve process
//
// Run it through run.sh, which builds this command and fuseserve from the
// checkout and runs them with GOMAXPROCS=1:
//
//	bash perfbench/run.sh --workload sim-full --seed 1 --seconds 15 --trace 0
//	bash perfbench/run.sh --steady 10 --workload sim-full --seed 1 --seconds 15
//
// See README.md for what each metric means and which layer moves it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the benchmark's verdict: the last line of standard output.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// metrics collects named values while a workload runs.
type metrics map[string]metric

func (m metrics) set(name string, value float64, unit string) {
	if math.IsNaN(value) || math.IsInf(value, 0) {
		value = 0
	}
	m[name] = metric{Value: value, Unit: unit}
}

// notReached reports 0 for metrics of a layer the workload does not reach,
// or cannot observe from the benchmark process: the output carries every
// metric of BENCHMARK.json on every workload.
func (m metrics) notReached(unit string, names ...string) {
	for _, name := range names {
		m.set(name, 0, unit)
	}
}

// outcome is what a workload hands back to main: both metric sets, the
// operation counts and the failed checks (empty when every check passed).
type outcome struct {
	endToEnd  metrics
	perLayer  metrics
	attempted int64
	failed    int64
	problems  []string
}

// env is the run's configuration, shared by every workload.
type env struct {
	seed      uint64
	seconds   float64
	trace     bool
	workDir   string
	fuseserve string
}

var workloads = map[string]func(*env) (*outcome, error){
	"figures-all": runFiguresAll,
	"sim-full":    runSimFull,
	"serve-mixed": runServeMixed,
}

func main() {
	var (
		workload  = flag.String("workload", "", "workload to run: figures-all, sim-full or serve-mixed")
		seed      = flag.Uint64("seed", 1, "workload seed: the same seed gives the same inputs")
		seconds   = flag.Int("seconds", 10, "how long the timed region runs (whole rounds, at least one)")
		traced    = flag.Int("trace", 0, "0 prints the end-to-end metrics; 1 runs an extra traced pass and prints the per-layer metrics")
		workDir   = flag.String("workdir", ".bench_build/work", "scratch directory for stores, logs and profiles (emptied per run)")
		fuseserve = flag.String("fuseserve", ".bench_build/bin/fuseserve", "fuseserve binary the serve-mixed workload starts")
		steady    = flag.Int("steady", 0, "run the workload this many times with seeds seed, seed+1, ... and print each metric's median, quartiles and spread")
		benchFile = flag.String("benchmark", "BENCHMARK.json", "benchmark definition holding the metric bounds (for -steady)")
	)
	flag.Parse()
	run, ok := workloads[*workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want figures-all, sim-full or serve-mixed)\n", *workload)
		os.Exit(2)
	}
	if *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be at least 1 and -trace 0 or 1")
		os.Exit(2)
	}
	if *steady > 0 {
		pass := []string{"-workdir", *workDir, "-fuseserve", *fuseserve}
		if err := runSteady(*steady, *benchFile, *workload, *seed, *seconds, *traced, pass); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			os.Exit(1)
		}
		return
	}

	dir, err := filepath.Abs(*workDir)
	if err == nil {
		err = resetDir(dir)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: work directory: %v\n", err)
		os.Exit(1)
	}
	e := &env{seed: *seed, seconds: float64(*seconds), trace: *traced == 1, workDir: dir, fuseserve: *fuseserve}
	out, err := run(e)
	os.RemoveAll(dir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		os.Exit(1)
	}
	for _, p := range out.problems {
		fmt.Fprintf(os.Stderr, "perfbench: CHECK FAILED: %s\n", p)
	}
	rep := report{
		Correct:   len(out.problems) == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   out.endToEnd,
	}
	if e.trace {
		rep.Metrics = out.perLayer
	}
	printTable(rep.Metrics)
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// printTable writes the metrics one per line, by name, ahead of the JSON
// verdict.
func printTable(m metrics) {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Printf("%-40s %16.6g %s\n", name, m[name].Value, m[name].Unit)
	}
}

// resetDir empties (or creates) a scratch directory.
func resetDir(dir string) error {
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	return os.MkdirAll(dir, 0o755)
}
