// Command perfbench is the repository's benchmark. It drives one
// workload with a single closed-loop client — the next op is sent as
// soon as the previous one returns, with no think time — at zero
// simulated device latency, so the times measure the program's CPU.
// Every result is checked against a model the benchmark keeps itself.
// A run is split over ten processes of this program (--child), one
// after the other, and every metric is the median over them.
//
//	perfbench --workload cache-narrow --seed 1 --seconds 10 --trace 0
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs again with
// span timing and prints the per-layer metrics. The last line of
// standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// --workload all runs every workload in turn. BENCHMARK.json at the
// repository root documents the workloads and metrics. Run it from the
// repository root with perfbench/run.sh, which builds this package.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"time"

	"corep/internal/strategy"
)

// workloads are the benchmark's workloads, in the order --workload all
// runs them. BENCHMARK.json says why each is there.
var workloads = []spec{
	// Outside-cache traffic: DFSCACHE with a cache of half the units.
	paperSpec(paperWorkload{
		name: "cache-narrow", kind: strategy.DFSCACHE, cacheUnits: 1000,
		numTops: []int{1, 10, 100}, prUpdate: 0.2,
		warmup: 300, countOps: 2000, partOps: 5000,
	}),
	// Buffer pool, heap temps, sort and merge join: BFS, no cache. The
	// program never frees simulated-disk pages and each query leaves
	// ~0.4 MB of temps there, so the database is renewed.
	paperSpec(paperWorkload{
		name: "bfs-wide", kind: strategy.BFS,
		numTops: []int{500, 1000, 2000}, renewEvery: 200,
		warmup: 100, countOps: 400, partOps: 2000,
	}),
	// The object API with everything resident.
	objapiSpec(),
}

// metricDef names a reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEndMetrics are printed with --trace 0; every one is measured on
// every workload and is never 0.
var endToEndMetrics = []metricDef{
	{"ops_per_s", "1/s"},
	{"retrieve_p50_us", "us"},
	{"retrieve_p99_us", "us"},
	{"cpu_us_per_op", "us"},
	{"allocs_per_op", "count"},
	{"alloc_bytes_per_op", "B"},
	{"heap_peak_mb", "MB"},
	{"setup_s", "s"},
}

// reportOnly are printed in the text report of a --trace 0 run but not
// in its JSON line: they are 0 on some workload by design.
var reportOnly = []metricDef{
	{"retrieve_samples", "count"},
	{"update_p50_us", "us"},
	{"update_p99_us", "us"},
	{"update_samples", "count"},
	{"io_per_op", "count"},
	{"failed_frac", "ratio"},
}

// perLayerMetrics are printed with --trace 1. A layer a workload does
// not exercise reads 0 there.
var perLayerMetrics = []metricDef{
	{"cache.insert_us_per_op", "us"},
	{"cache.lookup_us_per_op", "us"},
	{"cache.invalidate_us_per_op", "us"},
	{"cache.hit_rate", "ratio"},
	{"cache.evictions_per_op", "count"},
	{"cache.invalidations_per_op", "count"},
	{"buffer.pins_per_op", "count"},
	{"buffer.hit_rate", "ratio"},
	{"buffer.flushes_per_op", "count"},
	{"buffer.pin_unpin_hit_ns", "ns"},
	{"buffer.pin_unpin_miss_ns", "ns"},
	{"query.sort_us_per_op", "us"},
	{"query.mergejoin_us_per_op", "us"},
	{"strategy.scan_us_per_op", "us"},
	{"strategy.probe_us_per_op", "us"},
	{"strategy.temp_us_per_op", "us"},
	{"disk.reads_per_op", "count"},
	{"disk.writes_per_op", "count"},
	{"io_per_op", "count"},
	{"btree.get_ns", "ns"},
	{"tuple.decode_field_ns", "ns"},
	{"tuple.encode_ns", "ns"},
	{"pql.parse_us", "us"},
	{"corep.query_us_per_op", "us"},
	{"corep.path_cached_us_per_op", "us"},
	{"corep.update_us_per_op", "us"},
	{"corep.cache_hit_rate", "ratio"},
	{"gc.cycles_per_kop", "count"},
	{"update_p50_us", "us"},
	{"update_p99_us", "us"},
	{"retrieve_samples", "count"},
	{"update_samples", "count"},
	{"trace.overhead_frac", "ratio"},
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	// One processor: the single client and the GC then share one core,
	// so the GC's work lands in the ops' latency and CPU time rather
	// than depending on how busy a second core is.
	runtime.GOMAXPROCS(1)
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: cache-narrow, bfs-wide, objapi-mixed or all")
	seed := fs.Int64("seed", 1, "seed the workload's database and ops are drawn from")
	seconds := fs.Float64("seconds", 10, "summed op time to measure")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	child := fs.Bool("child", false, "measure in this process and print the raw result as JSON (used by the run itself)")
	part := fs.Int("part", 0, "with --child: which of the run's measuring processes this is")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fs.Usage()
		return 2
	}
	var run []spec
	for _, sp := range workloads {
		if *name == sp.name || *name == "all" {
			run = append(run, sp)
		}
	}
	if len(run) == 0 {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q\n", *name)
		return 2
	}
	budget := time.Duration(*seconds * float64(time.Second))
	if *child {
		if len(run) != 1 {
			fmt.Fprintln(stderr, "perfbench: --child measures one workload")
			return 2
		}
		out, err := runWorkload(run[0], *seed, *part, budget, *trace == 1)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
		r := childResult{Attempted: out.attempted, Failed: out.failed, Metrics: out.metrics}
		if out.firstErr != nil {
			r.FirstErr = out.firstErr.Error()
		}
		if err := json.NewEncoder(stdout).Encode(r); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
		return 0
	}
	code := 0
	for _, sp := range run {
		out, err := measure(sp, *seed, budget, *trace)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
		res := report(stdout, sp.name, *seed, out, *trace == 1)
		line, err := json.Marshal(res)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
		fmt.Fprintln(stdout, string(line))
		if !res.Correct {
			fmt.Fprintf(stderr, "perfbench: %s: %d of %d ops failed; first: %v\n", sp.name, out.failed, out.attempted, out.firstErr)
			code = 1
		}
	}
	return code
}

// report prints every metric of out as text, one per line, and returns
// the JSON result holding the metrics of this run's kind.
func report(w io.Writer, workload string, seed int64, out *outcome, traced bool) result {
	defs := endToEndMetrics
	text := append(append([]metricDef(nil), endToEndMetrics...), reportOnly...)
	if traced {
		defs, text = perLayerMetrics, perLayerMetrics
	}
	fmt.Fprintf(w, "# %s seed=%d trace=%v attempted=%d failed=%d\n", workload, seed, traced, out.attempted, out.failed)
	out.metrics["failed_frac"] = float64(out.failed) / float64(out.attempted)
	for _, d := range text {
		fmt.Fprintf(w, "%-30s %16.4f %s\n", d.name, out.metrics[d.name], d.unit)
	}
	res := result{
		Correct:   out.failed == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   map[string]metricValue{},
	}
	for _, d := range defs {
		res.Metrics[d.name] = metricValue{Value: out.metrics[d.name], Unit: d.unit}
	}
	return res
}

// procs is how many processes one run is split over. Each measures an
// equal share of the run, one after the other, and every metric is the
// median over them. How fast a process runs on a shared host depends on
// where its memory happens to land, and a longer single process does
// not average that out; a median over processes does.
const procs = 10

// childResult is what one measuring process prints.
type childResult struct {
	Attempted, Failed int
	FirstErr          string
	Metrics           map[string]float64
}

// measure runs sp in procs processes of this program, each for an equal
// share of budget, and combines their results: ops and failures add up,
// and each metric is the median over the processes.
func measure(sp spec, seed int64, budget time.Duration, trace int) (*outcome, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	out := &outcome{metrics: map[string]float64{}}
	per := map[string][]float64{}
	for i := 0; i < procs; i++ {
		cmd := exec.Command(self, "--child", "--part", fmt.Sprint(i), "--workload", sp.name, "--seed", fmt.Sprint(seed),
			"--seconds", fmt.Sprint((budget / procs).Seconds()), "--trace", fmt.Sprint(trace))
		cmd.Stderr = os.Stderr
		raw, err := cmd.Output()
		if err != nil {
			return nil, fmt.Errorf("%s: measuring process %d: %w", sp.name, i+1, err)
		}
		var r childResult
		if err := json.Unmarshal(raw, &r); err != nil {
			return nil, fmt.Errorf("%s: measuring process %d: %w", sp.name, i+1, err)
		}
		out.attempted += r.Attempted
		out.failed += r.Failed
		if out.firstErr == nil && r.FirstErr != "" {
			out.firstErr = errors.New(r.FirstErr)
		}
		for k, v := range r.Metrics {
			per[k] = append(per[k], v)
		}
	}
	for k, v := range per {
		out.metrics[k] = median(v)
	}
	return out, nil
}
