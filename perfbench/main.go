// Command perfbench is the sample warehouse's standing benchmark. It builds
// the stack `swd -dir` serves — a file store, warehouse.Open with the durable
// catalog, the decoded-sample cache, the write-ahead journal and server.New
// behind a loopback listener — drives one named workload through
// server.Client, checks every answer against an exact reference computed
// from the generated values, and prints each metric by name and unit.
//
// Usage (from the repository root; see README.md):
//
//	bash perfbench/run.sh --workload merge-warm --seed 1 --seconds 10 --trace 0
//	bash perfbench/run.sh --workload range-cold --seed 1 --seconds 10 --trace 1
//	bash perfbench/run.sh --workload rollin-window --seed 1 --seconds 10 --steady 5
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. With --trace 0 the metrics are the
// end-to-end ones; with --trace 1 they are the per-layer ones, and the spans
// are written to --spans.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object printed as the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// options are the command-line settings of one run.
type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	work     string // scratch directory for warehouses (inside the checkout)
	spans    string // traced runs write their spans here
}

func main() {
	var (
		wl      = flag.String("workload", "", "workload name: "+workloadNames())
		seed    = flag.Uint64("seed", 1, "input seed; the same seed gives the same inputs")
		seconds = flag.Int("seconds", 10, "length of the measured phase in seconds")
		trace   = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics, 0 = end-to-end metrics")
		steady  = flag.Int("steady", 0, "steadiness mode: run the workload this many times (seeds seed, seed+1, ...) and print each metric's quartiles")
		work    = flag.String("work", filepath.Join(".bench_build", "work"), "scratch directory for the warehouses")
		spans   = flag.String("spans", "", "traced runs write their spans to this file (default <work>/../spans-<workload>-<seed>.json)")
	)
	flag.Parse()
	if _, ok := workloads[*wl]; !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want %s)\n", *wl, workloadNames())
		os.Exit(2)
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be >= 1 and --trace 0 or 1")
		os.Exit(2)
	}
	if *steady > 0 {
		if err := runSteady(*wl, *seed, *seconds, *trace, *steady); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			os.Exit(1)
		}
		return
	}
	opts := options{workload: *wl, seed: *seed, seconds: *seconds, trace: *trace == 1, work: *work, spans: *spans}
	if opts.spans == "" {
		opts.spans = filepath.Join(filepath.Dir(opts.work), fmt.Sprintf("spans-%s-%d.json", opts.workload, opts.seed))
	}
	printShape(opts)
	res, err := run(opts)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: encode result: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
	if !res.Correct || res.Failed > 0 {
		os.Exit(1)
	}
}

// run executes one workload in a fresh scratch directory and removes the
// directory afterwards.
func run(opts options) (*result, error) {
	dir := filepath.Join(opts.work, fmt.Sprintf("%s-%d-%d", opts.workload, opts.seed, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("make scratch dir: %w", err)
	}
	defer os.RemoveAll(dir)
	return workloads[opts.workload].run(opts, dir)
}

// printShape records the machine shape and settings the figures were taken
// under, as one JSON line ahead of the result.
func printShape(opts options) {
	shape := map[string]string{
		"gomaxprocs":   strconv.Itoa(runtime.GOMAXPROCS(0)),
		"num_cpu":      strconv.Itoa(runtime.NumCPU()),
		"go_version":   runtime.Version(),
		"fsync_policy": walPolicy.String(),
		"cache_budget": strconv.FormatInt(workloads[opts.workload].cacheBytes, 10),
		"seed":         strconv.FormatUint(opts.seed, 10),
		"run_seconds":  strconv.Itoa(opts.seconds),
		"workload":     opts.workload,
		"trace":        strconv.FormatBool(opts.trace),
		"started":      time.Now().UTC().Format(time.RFC3339),
	}
	b, _ := json.Marshal(shape) // a map of strings always encodes
	fmt.Println("shape " + string(b))
}
