// Command perfbench is the repository benchmark. One process drives one
// workload for a fixed wall-clock window, checks every output, and
// prints one JSON result line as the last line of standard output:
//
//	bash perfbench/run.sh --workload hit --seed 1 --seconds 15 --trace 0
//
// Workloads (see workloadTable for why each exists and what it bypasses):
//
//   - hit: cache hits against an in-process server booted from a
//     populated durable cache;
//   - cold-mix: cache misses on distinct seeded tiny DAGs against the
//     latency-bound server configuration;
//   - ilp-large: the library path, portfolio.RunAnytime, on fixed
//     registry models whose holistic ILPs enter tree search.
//
// With --trace 0 the result carries the end-to-end metrics. With
// --trace 1 the run repeats the workload three times — untraced, traced,
// traced again on the same inputs — with spans recorded around the calls
// into each layer's public functions, and prints the per-layer metrics:
// counts, self time per layer from the spans, and the tracing overhead.
// The program under test carries no instrumentation of its own.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"syscall"
	"time"
)

// workloadSpec is one benchmark workload: why it was chosen, which
// layers it bypasses, and how to run it.
type workloadSpec struct {
	name     string
	why      string
	bypasses string
	run      func(e *env) (*outcome, error)
}

func workloadTable() []workloadSpec {
	return []workloadSpec{
		{
			name: "hit",
			why: "parse, fingerprint, cache lookup, JSON encode and net/http do all the work; " +
				"every solver change should leave it unchanged",
			bypasses: "portfolio, twostage, refine, bounds, ilpsched, dnc, partition, mip, lp (all served from cache)",
			run:      runHit,
		},
		{
			name: "cold-mix",
			why: "misses on distinct seeded tiny DAGs: the heuristic path sets the median, " +
				"the requests entering tree search set the throughput",
			bypasses: "schedcache reads (every request is a miss)",
			run:      runColdMix,
		},
		{
			name: "ilp-large",
			why: "library RunAnytime on 3k+-row models that enter tree search: " +
				"the sparse-LU kernel regime the solver work targets",
			bypasses: "server, schedcache, persist, graph parsing, wire encoding",
			run:      runILPLarge,
		},
	}
}

// env is what a workload run receives.
type env struct {
	seed    int64
	seconds time.Duration
	trace   bool
	out     string // directory for run records and traces
	tmp     string // scratch directory, removed at exit
}

// outcome is a workload's measured result.
type outcome struct {
	attempted, failed int
	failures          []string
	metrics           map[string]metric
	samples           map[string]int
	config            map[string]any
	extra             map[string]any
}

func newOutcome() *outcome {
	return &outcome{
		metrics: map[string]metric{},
		samples: map[string]int{},
		config:  map[string]any{},
		extra:   map[string]any{},
	}
}

// fail records one failed check; the first few messages go into the run
// record.
func (o *outcome) fail(format string, args ...any) {
	o.failed++
	if len(o.failures) < 20 {
		o.failures = append(o.failures, fmt.Sprintf(format, args...))
	}
}

// set records a metric. A value that is not finite (a ratio over an
// empty sample) cannot be encoded as JSON; it is recorded as 0 and named
// in the run record.
func (o *outcome) set(name, unit string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		o.extra["nonfinite_"+name] = fmt.Sprint(v)
		v = 0
	}
	o.metrics[name] = metric{v, unit}
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "", "workload name: hit, cold-mix or ilp-large")
	seed := flag.Int64("seed", 1, "seed for the workload's generated inputs")
	seconds := flag.Int("seconds", 15, "measured wall-clock window per phase")
	trace := flag.Int("trace", 0, "1: traced run reporting per-layer metrics")
	populate := flag.String("populate", "", "internal: populate a hit cache directory and exit")
	flag.Parse()

	if *populate != "" {
		if err := populateHitCache(*populate); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: populate:", err)
			os.Exit(1)
		}
		return
	}

	var spec *workloadSpec
	for _, w := range workloadTable() {
		if w.name == *workload {
			spec = &w
			break
		}
	}
	if spec == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *workload, *seconds, *trace)
		os.Exit(2)
	}

	out := os.Getenv("PERFBENCH_OUT")
	if out == "" {
		out = ".bench_build"
	}
	runDir := filepath.Join(out, "runs")
	tmp := filepath.Join(out, "tmp", fmt.Sprintf("run-%d", os.Getpid()))
	for _, d := range []string{runDir, tmp} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
	}
	e := &env{seed: *seed, seconds: time.Duration(*seconds) * time.Second, trace: *trace == 1, out: runDir, tmp: tmp}

	o, err := spec.run(e)
	os.RemoveAll(tmp)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", spec.name, err)
		os.Exit(1)
	}
	if o.attempted < 1 {
		fmt.Fprintf(os.Stderr, "perfbench: %s attempted nothing\n", spec.name)
		os.Exit(1)
	}
	o.set("peak_rss_mb", "MB", peakRSSMB())
	o.set("failed_frac", "ratio", float64(o.failed)/float64(o.attempted))

	rec := map[string]any{
		"workload":   spec.name,
		"why":        spec.why,
		"bypasses":   spec.bypasses,
		"seed":       e.seed,
		"seconds":    *seconds,
		"trace":      e.trace,
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc":      runtime.NumCPU(),
		"go":         runtime.Version(),
		"commit":     commit(),
		"config":     o.config,
		"samples":    o.samples,
		"failures":   o.failures,
		"extra":      o.extra,
	}
	recBytes, err := json.Marshal(map[string]any{"perfbench_record": rec})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: encoding the run record: %v\n", err)
		os.Exit(1)
	}
	name := fmt.Sprintf("%s-seed%d-trace%d.json", spec.name, e.seed, *trace)
	if err := os.WriteFile(filepath.Join(runDir, name), recBytes, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: writing run record:", err)
	}
	fmt.Println(string(recBytes))

	metrics, err := selectMetrics(o, e.trace)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", spec.name, err)
		os.Exit(1)
	}
	res, err := json.Marshal(result{Correct: o.failed == 0, Attempted: o.attempted, Failed: o.failed, Metrics: metrics})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: encoding the result: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(res))
}

// commit reports the VCS revision stamped into the binary, when the
// build ran inside a repository.
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if dirty {
		rev += "+dirty"
	}
	return rev
}

// peakRSSMB is the process's peak resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// sortedKeys returns m's keys in order, for stable records.
func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}
