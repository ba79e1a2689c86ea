package main

import (
	"bufio"
	"bytes"
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// span is one call into a layer, recorded by the benchmark around the call.
type span struct {
	name       string
	start, end time.Time
}

// tracer keeps spans in memory until the traced pass ends. A nil tracer
// records nothing, so the timed passes pay only a nil check.
type tracer struct {
	mu    sync.Mutex
	spans []span
}

// begin opens a span; the returned function closes it.
func (t *tracer) begin(name string) func() {
	if t == nil {
		return func() {}
	}
	start := time.Now()
	return func() {
		end := time.Now()
		t.mu.Lock()
		t.spans = append(t.spans, span{name: name, start: start, end: end})
		t.mu.Unlock()
	}
}

// selfTimes attributes every instant between the root span's start and end
// to the innermost open span, the one opened most recently. With one P, that
// is the span whose code the CPU was running; a span opened on another
// goroutine while a longer one is open (a preempted simulation) takes its
// interval away from the longer one, as a child would. The result maps span
// names to seconds; the values sum to the root's duration.
func selfTimes(root span, spans []span) map[string]float64 {
	type edge struct {
		at    time.Time
		open  bool
		index int
	}
	all := append([]span{root}, spans...)
	edges := make([]edge, 0, 2*len(all))
	for i, s := range all {
		edges = append(edges, edge{s.start, true, i}, edge{s.end, false, i})
	}
	sort.SliceStable(edges, func(i, j int) bool {
		if !edges[i].at.Equal(edges[j].at) {
			return edges[i].at.Before(edges[j].at)
		}
		return edges[i].open && !edges[j].open
	})
	self := make(map[string]float64)
	var open []int // indices of open spans, by start time
	last := root.start
	for _, e := range edges {
		if len(open) > 0 {
			inner := all[open[len(open)-1]]
			self[inner.name] += e.at.Sub(last).Seconds()
		}
		last = e.at
		if e.open {
			open = append(open, e.index)
			continue
		}
		for k := len(open) - 1; k >= 0; k-- {
			if open[k] == e.index {
				open = append(open[:k], open[k+1:]...)
				break
			}
		}
	}
	return self
}

// minSpanCover is the least share of a traced pass that spans other than
// the root must cover. The benchmark wraps every call it makes into a layer,
// so the root's own time is only the benchmark's bookkeeping between calls;
// more than this means a layer ran outside any span and the per-layer
// times miss it.
const minSpanCover = 0.9

// checkSpans verifies the traced pass's spans: every span lies inside the
// root, the self times sum to the root's duration (bookkeeping: selfTimes
// hands every instant to some span), and the layer spans cover at least
// minSpanCover of the pass. It returns the covered share.
func checkSpans(root span, spans []span, self map[string]float64) (float64, error) {
	for _, s := range spans {
		if s.start.Before(root.start) || s.end.After(root.end) || s.end.Before(s.start) {
			return 0, fmt.Errorf("span %s [%v, %v] lies outside the traced pass", s.name, s.start, s.end)
		}
	}
	sum := 0.0
	for _, v := range self {
		sum += v
	}
	wall := root.end.Sub(root.start).Seconds()
	if math.Abs(sum-wall) > 1e-6*wall+1e-6 {
		return 0, fmt.Errorf("span self times sum to %.6fs, traced wall time is %.6fs", sum, wall)
	}
	cover := 1 - self[root.name]/wall
	if cover < minSpanCover {
		return cover, fmt.Errorf("layer spans cover %.3f of the traced pass, want at least %.2f", cover, minSpanCover)
	}
	return cover, nil
}

// hostPackages are the packages whose host CPU time the traced run reports
// (as host.<pkg>_s); the Go runtime is host.runtime_s and everything else
// (the standard library, this command, other internal packages) is
// host.other_s.
var hostPackages = []string{
	"sim", "gpu", "core", "cache", "cbf", "predictor", "memtech", "l2", "noc",
	"dram", "trace", "energy", "experiments", "stats", "engine", "store",
}

// packageTotals runs go tool pprof on a CPU profile and totals flat time per
// package bucket. It returns the totals and the profile's own total.
func packageTotals(profilePath string) (map[string]float64, float64, error) {
	cmd := exec.Command("go", "tool", "pprof", "-top", "-flat", "-unit=ms",
		"-nodecount=1000000", "-nodefraction=0", "-edgefraction=0", "-symbolize=none", profilePath)
	cmd.Env = append(os.Environ(), "PPROF_TMPDIR="+os.TempDir())
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, 0, fmt.Errorf("go tool pprof: %v: %s", err, stderr.String())
	}
	return parsePprofTop(out)
}

// parsePprofTop reads `go tool pprof -top -unit=ms` output: a header line
// "... of <total>ms total" and one line per function whose first column is
// its flat time and whose last column is the function name.
func parsePprofTop(out []byte) (map[string]float64, float64, error) {
	totals := make(map[string]float64)
	total := -1.0
	inTable := false
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if i := strings.Index(line, " of "); strings.HasPrefix(line, "Showing nodes") && i >= 0 {
			rest := strings.Fields(line[i+len(" of "):])
			if len(rest) == 0 {
				return nil, 0, fmt.Errorf("pprof header %q has no total", line)
			}
			v, err := parseMillis(rest[0])
			if err != nil {
				return nil, 0, err
			}
			total = v
			continue
		}
		if strings.HasPrefix(line, "flat") {
			inTable = true
			continue
		}
		if !inTable || line == "" {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 6 {
			return nil, 0, fmt.Errorf("unexpected pprof line %q", line)
		}
		flat, err := parseMillis(fields[0])
		if err != nil {
			return nil, 0, err
		}
		fn := strings.Join(fields[5:], " ")
		totals[packageBucket(fn)] += flat / 1000
	}
	if total < 0 {
		return nil, 0, fmt.Errorf("pprof output has no total:\n%s", out)
	}
	return totals, total / 1000, nil
}

// parseMillis parses a pprof value printed with -unit=ms ("123.45ms", "0").
func parseMillis(s string) (float64, error) {
	v, err := strconv.ParseFloat(strings.TrimSuffix(s, "ms"), 64)
	if err != nil {
		return 0, fmt.Errorf("pprof value %q: %v", s, err)
	}
	return v, nil
}

// packageBucket maps a function name such as
// "fuse/internal/cache.(*TagStore).Lookup" to its host-time bucket.
func packageBucket(fn string) string {
	// Cut " (inline)" and type arguments, which may hold other paths.
	pkg := fn
	if i := strings.IndexAny(pkg, "[ "); i >= 0 {
		pkg = pkg[:i]
	}
	slash := strings.LastIndex(pkg, "/")
	if dot := strings.Index(pkg[slash+1:], "."); dot >= 0 {
		pkg = pkg[:slash+1+dot]
	}
	switch {
	case pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/"):
		return "runtime"
	case strings.HasPrefix(pkg, "fuse/internal/"):
		name := strings.TrimPrefix(pkg, "fuse/internal/")
		for _, p := range hostPackages {
			if name == p {
				return p
			}
		}
	}
	return "other"
}

// checkPackageTotals verifies that the per-package totals account for the
// profile's whole sampled CPU time, to within the rounding of the values
// pprof prints. It is bookkeeping over pprof's own lines: it catches a
// parse that drops or double-counts a line.
func checkPackageTotals(totals map[string]float64, total float64) error {
	sum := 0.0
	for _, v := range totals {
		sum += v
	}
	if tol := 1e-6 + 1e-3*total; math.Abs(sum-total) > tol {
		return fmt.Errorf("package totals sum to %.4fs, the profile holds %.4fs", sum, total)
	}
	return nil
}

// hostMetrics profiles fn and reports host.<pkg>_s per package bucket, after
// checking that the buckets sum to the sampled CPU time and that the sampled
// CPU time is no more than the wall time the profile covered (one P).
func hostMetrics(m metrics, profilePath string, fn func() error) error {
	f, err := os.Create(profilePath)
	if err != nil {
		return err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return err
	}
	start := time.Now()
	fnErr := fn()
	wall := time.Since(start).Seconds()
	pprof.StopCPUProfile()
	if err := f.Close(); err != nil {
		return err
	}
	if fnErr != nil {
		return fnErr
	}
	totals, total, err := packageTotals(profilePath)
	if err != nil {
		return err
	}
	if err := checkPackageTotals(totals, total); err != nil {
		return err
	}
	// Samples land every 10ms of CPU time; allow one per second of wall
	// time plus a few for the profiler's own start and stop.
	if total > wall*float64(runtime.GOMAXPROCS(0))+0.05+0.01*wall {
		return fmt.Errorf("profile holds %.3fs of CPU in %.3fs of wall time", total, wall)
	}
	for _, p := range append(hostPackages, "runtime", "other") {
		m.set("host."+p+"_s", totals[p], "s")
	}
	m.set("host.profiled_s", total, "s")
	return nil
}

// peakRSSMB reads VmHWM (peak resident set) from /proc/<pid>/status.
func peakRSSMB(pid int) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			fields := strings.Fields(line)
			if len(fields) < 2 {
				break
			}
			kb, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}
