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
)

// runSteady runs the workload n times, each in its own process with the
// next seed, and prints every metric's median, quartiles and relative
// spread (interquartile range over median) — the figures the bounds in
// BENCHMARK.json are set from.
func runSteady(wl string, seed uint64, seconds, trace, n int) error {
	self, err := os.Executable()
	if err != nil {
		return fmt.Errorf("locate own binary: %w", err)
	}
	values := make(map[string][]float64)
	units := make(map[string]string)
	var attempted, failed int64
	for i := 0; i < n; i++ {
		s := seed + uint64(i)
		cmd := exec.Command(self, "--workload", wl, "--seed", strconv.FormatUint(s, 10),
			"--seconds", strconv.Itoa(seconds), "--trace", strconv.Itoa(trace))
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			return fmt.Errorf("run with seed %d: %w", s, err)
		}
		lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
		for _, l := range lines {
			if bytes.HasPrefix(l, []byte("host ")) {
				fmt.Fprintf(os.Stderr, "steady: seed %d: %s\n", s, l)
			}
		}
		var res result
		if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
			return fmt.Errorf("run with seed %d: decode result: %w", s, err)
		}
		if !res.Correct {
			return fmt.Errorf("run with seed %d: incorrect answers", s)
		}
		attempted += res.Attempted
		failed += res.Failed
		for name, m := range res.Metrics {
			values[name] = append(values[name], m.Value)
			units[name] = m.Unit
		}
		fmt.Fprintf(os.Stderr, "steady: run %d/%d (seed %d) done\n", i+1, n, s)
	}
	names := make([]string, 0, len(values))
	for name := range values {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Printf("workload %s: %d runs of %ds, seeds %d..%d, %d operations attempted, %d failed\n",
		wl, n, seconds, seed, seed+uint64(n)-1, attempted, failed)
	fmt.Printf("%-34s %-9s %12s %12s %12s %8s\n", "metric", "unit", "q1", "median", "q3", "spread")
	for _, name := range names {
		q1, med, q3 := quartiles(values[name])
		spread := math.Abs(q3-q1) / math.Abs(med)
		fmt.Printf("%-34s %-9s %12.4g %12.4g %12.4g %7.1f%%\n", name, units[name], q1, med, q3, 100*spread)
	}
	return nil
}

// quartiles matches Python's statistics.quantiles(xs, n=4) (the exclusive
// method), which is how the spreads are judged.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 1 {
		return s[0], s[0], s[0]
	}
	at := func(p float64) float64 {
		m := float64(n+1) * p
		j := int(math.Floor(m))
		delta := m - float64(j)
		switch {
		case j < 1:
			j, delta = 1, 0
		case j >= n:
			j, delta = n-1, 1
		}
		return s[j-1] + delta*(s[j]-s[j-1])
	}
	return at(0.25), at(0.5), at(0.75)
}
