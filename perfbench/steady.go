package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

// median is the middle value (the mean of the middle two for an even
// count), as Python's statistics.median gives it.
func median(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile is the nearest-rank p-th percentile.
func percentile(values []float64, p float64) float64 {
	if len(values) == 0 {
		return 0
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	return s[min(max(rank, 1), len(s))-1]
}

// quartiles returns the first and third quartiles by the method of Python's
// statistics.quantiles(values, n=4) (the default, exclusive method).
func quartiles(values []float64) (q1, q3 float64) {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	ld := len(s)
	if ld < 2 {
		if ld == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	m := ld + 1
	q := func(i int) float64 {
		j := i * m / 4
		j = min(max(j, 1), ld-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

// benchmarkBounds reads the end-to-end bounds from BENCHMARK.json.
func benchmarkBounds(path string) (map[string]float64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var def struct {
		EndToEnd []struct {
			Name  string  `json:"name"`
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	if err := json.Unmarshal(data, &def); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	bounds := make(map[string]float64)
	for _, m := range def.EndToEnd {
		bounds[m.Name] = m.Bound
	}
	return bounds, nil
}

// runSteady runs the workload n times in child processes, seeds seed to
// seed+n-1, and prints each metric's median, quartiles and spread (the
// inter-quartile distance as a share of the median) against its bound.
func runSteady(n int, benchFile, workload string, seed uint64, seconds, traced int, passThrough []string) error {
	bounds, err := benchmarkBounds(benchFile)
	if err != nil {
		return err
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	values := make(map[string][]float64)
	units := make(map[string]string)
	var shares []string
	for i := 0; i < n; i++ {
		s := seed + uint64(i)
		args := append([]string{"-workload", workload, "-seed", strconv.FormatUint(s, 10),
			"-seconds", strconv.Itoa(seconds), "-trace", strconv.Itoa(traced)}, passThrough...)
		cmd := exec.Command(self, args...)
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			return fmt.Errorf("run with seed %d: %w", s, err)
		}
		lines := strings.Split(strings.TrimSpace(string(out)), "\n")
		var rep report
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rep); err != nil {
			return fmt.Errorf("run with seed %d: last line: %w", s, err)
		}
		var line bytes.Buffer
		fmt.Fprintf(&line, "seed %d: correct=%v attempted=%d failed=%d", s, rep.Correct, rep.Attempted, rep.Failed)
		for name, v := range rep.Metrics {
			values[name] = append(values[name], v.Value)
			units[name] = v.Unit
		}
		fmt.Println(line.String())
		shares = append(shares, fmt.Sprintf("%d/%d", rep.Failed, rep.Attempted))
	}
	names := make([]string, 0, len(values))
	for name := range values {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Printf("\n%-32s %14s %14s %14s %8s %6s %s\n", "metric", "median", "q1", "q3", "spread", "bound", "spread/bound")
	for _, name := range names {
		v := values[name]
		med := median(v)
		q1, q3 := quartiles(v)
		spread := 0.0
		if med != 0 {
			spread = (q3 - q1) / math.Abs(med)
		}
		b, ok := bounds[name]
		verdict := ""
		if ok && b > 0 {
			verdict = fmt.Sprintf("%.2f", spread/b)
		}
		fmt.Printf("%-32s %14.6g %14.6g %14.6g %8.4f %6.3g %s %s\n", name, med, q1, q3, spread, b, verdict, units[name])
		if ok {
			runs := make([]string, len(v))
			for i, x := range v {
				runs[i] = strconv.FormatFloat(x, 'g', 4, 64)
			}
			fmt.Printf("%-32s runs: %s\n", "", strings.Join(runs, " "))
		}
	}
	fmt.Printf("\nfailed/attempted per run: %s\n", strings.Join(shares, " "))
	return nil
}
