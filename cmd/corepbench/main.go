// Command corepbench regenerates the tables and figures of Jhingran &
// Stonebraker, "Alternatives in Complex Object Representation: A
// Performance Perspective" (ICDE 1990).
//
// Usage:
//
//	corepbench -list
//	corepbench -exp fig3                # one experiment at paper scale
//	corepbench -all -scale quick        # every experiment, small scale
//	corepbench -exp fig3,fig5 -seed 7   # several experiments
//	corepbench -exp fig3 -metrics       # + per-cell I/O histograms, cache/buffer breakdowns
//	corepbench -exp fig3 -trace         # + JSON-lines span stream on stderr
//	corepbench -exp fig3 -profile out   # + out.cpu.pprof / out.heap.pprof
//	corepbench -chaos -chaos-seeds 50   # differential chaos sweep, writes BENCH_chaos.json
//	corepbench -txn                     # versioned-vs-latched contention sweep, writes BENCH_txn.json
//
// Paper scale uses the paper's environment (10,000 parents, sequences
// of up to 1000 queries); quick scale shrinks both so the full suite
// finishes in minutes while preserving the qualitative shapes.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"corep/internal/harness"
	"corep/internal/obs"
	"corep/internal/strategy"
	"corep/internal/workload"
)

func main() { os.Exit(run()) }

func run() int {
	var (
		expName  = flag.String("exp", "", "experiment(s) to run, comma-separated (see -list)")
		all      = flag.Bool("all", false, "run every experiment")
		list     = flag.Bool("list", false, "list experiments")
		scale    = flag.String("scale", "paper", "paper or quick")
		seed     = flag.Int64("seed", 1, "workload generator seed")
		plot     = flag.Bool("plot", false, "also render an ASCII log-log chart of each table")
		verify   = flag.Bool("verify", false, "run the cross-strategy agreement self-check and exit")
		metrics  = flag.Bool("metrics", false, "print per-experiment metrics (I/O histograms, cache/buffer breakdowns)")
		trace    = flag.Bool("trace", false, "stream per-span JSON lines to stderr (see -trace-out)")
		traceOut = flag.String("trace-out", "", "write the span stream to this file instead of stderr")
		profile  = flag.String("profile", "", "write CPU and heap profiles to <prefix>.cpu.pprof / <prefix>.heap.pprof")
		parallel = flag.Int("parallel", 0, "worker goroutines for experiment grids (default GOMAXPROCS)")

		throughput    = flag.Bool("throughput", false, "run the concurrent-serving throughput benchmark and exit")
		throughputOut = flag.String("throughput-out", "BENCH_throughput.json", "where -throughput writes its JSON result")
		clients       = flag.String("clients", "1,2,4,8", "client counts for -throughput, comma-separated")
		shards        = flag.Int("shards", 8, "buffer-pool lock stripes for -throughput's sharded runs")

		latency     = flag.Duration("latency", 0, "simulated per-page device latency for experiment runs (e.g. 200us)")
		prefetch    = flag.Bool("prefetch", false, "run the prefetch latency×depth sweep and exit (nonzero exit on any read-count or row regression)")
		prefetchOut = flag.String("prefetch-out", "BENCH_prefetch.json", "where -prefetch writes its JSON result")

		chaos         = flag.Bool("chaos", false, "run the differential chaos-test sweep and exit (nonzero exit on any violation)")
		chaosSeeds    = flag.Int("chaos-seeds", 0, "fault schedules per strategy for -chaos (default 50)")
		chaosOut      = flag.String("chaos-out", "BENCH_chaos.json", "where -chaos writes its JSON result")
		chaosUpdaters = flag.Int("chaos-updaters", 0, "with -chaos: also hammer the versioned store with this many concurrent updaters (torn/lost-version audit)")

		crash      = flag.Bool("crash", false, "run the kill-and-reopen crash-chaos sweep and exit (nonzero exit on any violation)")
		crashSeeds = flag.Int("crash-seeds", 0, "kill schedules per strategy for -crash (default 50)")
		crashOut   = flag.String("crash-out", "BENCH_crash.json", "where -crash writes its JSON result")

		walMode    = flag.Bool("wal", false, "run the WAL group-commit sweep and exit (nonzero exit unless fsyncs/commit strictly decreases with clients)")
		walOut     = flag.String("wal-out", "BENCH_wal.json", "where -wal writes its JSON result")
		walClients = flag.String("wal-clients", "", "client counts for -wal, comma-separated (default 1,2,4,8,16)")

		txnMode     = flag.Bool("txn", false, "run the versioned-vs-latched write-contention sweep and exit, writes BENCH_txn.json")
		txnOut      = flag.String("txn-out", "BENCH_txn.json", "where -txn writes its JSON result")
		txnStrategy = flag.String("txn-strategy", "DFSCACHE", "strategy for -txn")
		txnThetas   = flag.String("txn-thetas", "0,0.9", "zipf skew values for -txn, comma-separated")
		txnUpdates  = flag.String("txn-updates", "0,0.3,0.6", "update-mix probabilities for -txn, comma-separated")
		txnClients  = flag.String("txn-clients", "1,2,4,8", "client counts for -txn, comma-separated")
		txnOps      = flag.Int("txn-ops", 0, "operations per client for -txn (default 40)")

		plannerMode    = flag.Bool("planner", false, "run the cost-based planner shifting-mix sweep and exit (nonzero exit unless the planner beats every static strategy on the full run)")
		plannerOut     = flag.String("planner-out", "BENCH_planner.json", "where -planner writes its JSON result")
		plannerQueries = flag.Int("planner-queries", 0, "scale every phase's retrieve count for -planner (0 = defaults)")

		reclustMode    = flag.Bool("reclust", false, "run the online-reclustering convergence sweep and exit (nonzero exit unless io/query strictly decreases and lands on the static cell)")
		reclustOut     = flag.String("reclust-out", "BENCH_reclust.json", "where -reclust writes its JSON result")
		reclustRounds  = flag.Int("reclust-rounds", 0, "migration rounds for -reclust (default 6)")
		reclustQueries = flag.Int("reclust-queries", 0, "fixed query-set size for -reclust (default 300)")

		slo          = flag.Bool("slo", false, "run the tail-latency SLO serving benchmark and exit")
		sloOut       = flag.String("slo-out", "BENCH_slo.json", "where -slo writes its JSON result")
		sloTarget    = flag.Float64("slo-target", 0.99, "SLO quantile for -slo (0.99 = p99)")
		sloThreshold = flag.Duration("slo-threshold", 250*time.Millisecond, "SLO latency threshold for -slo")
		sloClients   = flag.Int("slo-clients", 8, "concurrent clients for -slo")

		watch = flag.Duration("watch", 0, "periodically dump live metrics to stderr while running (e.g. -watch 2s)")
	)
	flag.Parse()

	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "unexpected argument %q\n", flag.Arg(0))
		flag.Usage()
		return 2
	}

	if *list {
		fmt.Println("experiments:")
		for _, e := range harness.Experiments {
			fmt.Printf("  %-14s %s\n", e.Name, e.Paper)
		}
		return 0
	}

	if *profile != "" {
		cpu, err := os.Create(*profile + ".cpu.pprof")
		if err != nil {
			fmt.Fprintf(os.Stderr, "profile: %v\n", err)
			return 1
		}
		defer cpu.Close()
		if err := pprof.StartCPUProfile(cpu); err != nil {
			fmt.Fprintf(os.Stderr, "profile: %v\n", err)
			return 1
		}
		defer pprof.StopCPUProfile()
		defer func() {
			heap, err := os.Create(*profile + ".heap.pprof")
			if err != nil {
				fmt.Fprintf(os.Stderr, "profile: %v\n", err)
				return
			}
			defer heap.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(heap); err != nil {
				fmt.Fprintf(os.Stderr, "profile: %v\n", err)
			}
		}()
	}

	// liveReg is what -watch dumps: serve modes and the experiment loop
	// publish their current registry here (experiments swap registries,
	// so the watcher follows the pointer, not one registry).
	var liveReg atomic.Pointer[obs.Registry]
	if *watch > 0 {
		*metrics = true // watching implies collecting
		stop := startWatch(*watch, &liveReg)
		defer stop()
	}

	var sink obs.Sink
	if *trace || *traceOut != "" {
		w := os.Stderr
		if *traceOut != "" {
			f, err := os.Create(*traceOut)
			if err != nil {
				fmt.Fprintf(os.Stderr, "trace: %v\n", err)
				return 1
			}
			defer f.Close()
			w = f
		}
		sink = obs.NewJSONLSink(w)
	}

	if *verify {
		sc := harness.QuickScale
		sc.Seed = *seed
		sc.Parallel = *parallel
		table, err := harness.VerifyAgreement(sc)
		if table != nil {
			table.Fprint(os.Stdout)
		}
		if err != nil {
			return 1
		}
		return 0
	}

	if *prefetch {
		lats, depths := harness.DefaultPrefetchSweep()
		fmt.Printf("running prefetch sweep (latencies=%v, depths=%v, seed=%d)...\n", lats, depths, *seed)
		bench, err := harness.RunPrefetchSweep(lats, depths, *seed)
		if err != nil {
			fmt.Fprintf(os.Stderr, "prefetch: %v\n", err)
			return 1
		}
		bad := false
		for _, c := range bench.Cells {
			fmt.Printf("  lat=%-6s depth=%-3d sync=%-10s pref=%-10s speedup=%.2fx reads %d→%d rows_match=%v\n",
				c.Latency, c.Depth, c.SyncElapsed.Round(time.Millisecond), c.PrefElapsed.Round(time.Millisecond),
				c.Speedup, c.SyncReads, c.PrefReads, c.RowsMatch)
			// Wall clock is noisy in CI; the hard gates are determinism and
			// read counts, which prefetch must never regress.
			if c.PrefReads > c.SyncReads {
				fmt.Fprintf(os.Stderr, "prefetch: page reads regressed at lat=%s depth=%d (%d > %d)\n",
					c.Latency, c.Depth, c.PrefReads, c.SyncReads)
				bad = true
			}
			if !c.RowsMatch {
				fmt.Fprintf(os.Stderr, "prefetch: result rows diverged at lat=%s depth=%d\n", c.Latency, c.Depth)
				bad = true
			}
		}
		fmt.Printf("  best speedup: %.2fx\n", bench.BestSpeedup)
		if !writeBench("prefetch", *prefetchOut, bench) {
			return 1
		}
		if bad {
			return 1
		}
		return 0
	}

	if *plannerMode {
		cfg := harness.DefaultPlannerSweepConfig()
		if *plannerQueries > 0 {
			for i := range cfg.Phases {
				cfg.Phases[i].Retrieves = *plannerQueries
			}
		}
		if *seed != 1 {
			cfg.Seed = *seed
			cfg.DB.Seed = *seed
		}
		fmt.Printf("running planner shifting-mix sweep (parents=%d, %d phases, seed=%d)...\n",
			cfg.DB.NumParents, len(cfg.Phases), cfg.Seed)
		start := time.Now()
		sweep, err := harness.RunPlannerSweep(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "planner: %v\n", err)
			return 1
		}
		for _, ph := range sweep.Phases {
			fmt.Printf("  phase %-8s (%d retrieves, %d updates):\n", ph.Name, ph.Retrieves, ph.Updates)
			for _, arm := range sweep.Arms {
				fmt.Printf("    %-10s %8.2f io/query\n", arm, ph.IOPerQuery[arm])
			}
		}
		fmt.Printf("  full run:\n")
		for _, arm := range sweep.Arms {
			fmt.Printf("    %-10s %8.2f io/query\n", arm, sweep.TotalIOPerQuery[arm])
		}
		fmt.Printf("  %d retrieve results checked row-identical across arms; planner made %d choices (%d probes, %d switches) in %s\n",
			sweep.RowsCompared, sweep.PlannerStats.Choices, sweep.PlannerStats.Probes,
			sweep.PlannerStats.Switches, time.Since(start).Round(time.Millisecond))
		bad := false
		if err := sweep.CheckPlannerSweep(); err != nil {
			fmt.Fprintf(os.Stderr, "planner: VIOLATION %v\n", err)
			bad = true
		}
		if !writeBench("planner", *plannerOut, sweep) {
			return 1
		}
		if bad {
			return 1
		}
		return 0
	}

	if *reclustMode {
		cfg := harness.DefaultReclustSweepConfig()
		if *reclustRounds > 0 {
			cfg.MaxRounds = *reclustRounds
		}
		if *reclustQueries > 0 {
			cfg.NumRetrieves = *reclustQueries
		}
		if *seed != 1 {
			cfg.DB.Seed = *seed
		}
		fmt.Printf("running reclustering convergence sweep (parents=%d, θ=%.2g, %d queries, ≤%d rounds, seed=%d)...\n",
			cfg.DB.NumParents, cfg.ZipfTheta, cfg.NumRetrieves, cfg.MaxRounds, cfg.DB.Seed)
		start := time.Now()
		sweep, err := harness.RunReclustSweep(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "reclust: %v\n", err)
			return 1
		}
		fmt.Printf("  static DFSCLUST cell: %.2f io/query\n", sweep.StaticIOPerQuery)
		for _, r := range sweep.Rounds {
			fmt.Printf("  round %d: io/query=%-8.2f moved=%-4d migration_io=%-6d placements=%d\n",
				r.Round, r.IOPerQuery, r.Moved, r.MigrationIO, r.Placements)
		}
		fmt.Printf("  %d result values checked against the no-reclust control, %d objects migrated in %s\n",
			sweep.RowsChecked, sweep.Stats.Migrated, time.Since(start).Round(time.Millisecond))
		bad := false
		if err := sweep.CheckConvergence(); err != nil {
			fmt.Fprintf(os.Stderr, "reclust: VIOLATION %v\n", err)
			bad = true
		}
		if !writeBench("reclust", *reclustOut, sweep) {
			return 1
		}
		if bad {
			return 1
		}
		return 0
	}

	if *chaos {
		cfg := harness.DefaultChaosConfig()
		if *chaosSeeds > 0 {
			cfg.Schedules = *chaosSeeds
		}
		if *seed != 1 {
			cfg.FaultSeed = *seed
		}
		fmt.Printf("running chaos sweep (%d strategies × %d schedules, fault seed base %d)...\n",
			len(cfg.Strategies), cfg.Schedules, cfg.FaultSeed)
		start := time.Now()
		bench, err := harness.RunChaos(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "chaos: %v\n", err)
			return 1
		}
		for _, s := range bench.Strategies {
			var injected, retries, recovered, degraded, cleanErrs, rows int64
			for _, r := range s.Runs {
				injected += r.Faults.Injected
				retries += r.Retries
				recovered += r.Recovered
				degraded += r.CacheDegraded
				cleanErrs += int64(r.CleanErrors)
				rows += int64(r.RowsCompared)
			}
			fmt.Printf("  %-16s baseline_reads=%-6d rows_checked=%-5d faults=%-4d retried=%-4d recovered=%-4d degraded=%-3d clean_errors=%d\n",
				s.Strategy, s.BaselineReads, rows, injected, retries, recovered, degraded, cleanErrs)
		}
		viol := bench.AllViolations()
		if !reportSweep("chaos", viol, start, *chaosOut, bench) {
			return 1
		}
		if *chaosUpdaters > 0 {
			cfg.ConcurrentUpdaters = *chaosUpdaters
			fmt.Printf("running txn atomicity hammer (%d updaters × %d rounds)...\n", *chaosUpdaters, cfg.Ops)
			for _, kind := range []strategy.Kind{strategy.DFS, strategy.DFSCACHE} {
				tv, err := harness.RunTxnChaos(cfg, kind)
				if err != nil {
					fmt.Fprintf(os.Stderr, "chaos: txn hammer %s: %v\n", kind, err)
					return 1
				}
				for _, v := range tv {
					fmt.Fprintf(os.Stderr, "chaos: VIOLATION %s\n", v)
				}
				fmt.Printf("  %-16s %d violation(s)\n", kind, len(tv))
				viol = append(viol, tv...)
			}
		}
		if len(viol) > 0 {
			return 1
		}
		return 0
	}

	if *crash {
		cfg := harness.DefaultCrashConfig()
		if *crashSeeds > 0 {
			cfg.Schedules = *crashSeeds
		}
		if *seed != 1 {
			cfg.Seed = *seed
		}
		fmt.Printf("running crash-chaos sweep (%d strategies × %d kill schedules, seed base %d)...\n",
			len(cfg.Strategies), cfg.Schedules, cfg.Seed)
		start := time.Now()
		bench, err := harness.RunCrashChaos(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "crash: %v\n", err)
			return 1
		}
		for i, c := range bench.Cells() {
			midCommit := 0
			for _, r := range bench.Strategies[i].Runs {
				if r.MidCommit {
					midCommit++
				}
			}
			m := c.Metrics
			fmt.Printf("  %-16s acked=%-5.0f replayed=%-5.0f discarded=%-4.0f mid_commit=%-3d rollbacks=%-3.0f clean_errors=%-3.0f rows_checked=%.0f\n",
				c.Name, m["acked_commits"], m["replayed_commits"], m["discarded_records"], midCommit, m["rollbacks"], m["clean_errors"], m["rows_compared"])
		}
		viol := bench.AllViolations()
		if !reportSweep("crash", viol, start, *crashOut, bench) || len(viol) > 0 {
			return 1
		}
		return 0
	}

	if *walMode {
		cfg := harness.DefaultWALSweepConfig()
		if *walClients != "" {
			counts, err := parseInts(*walClients)
			if err != nil {
				fmt.Fprintf(os.Stderr, "bad -wal-clients: %v\n", err)
				return 2
			}
			cfg.Clients = counts
		}
		fmt.Printf("running WAL group-commit sweep (clients=%v, batches=%v, %d commits/client, fsync=%s)...\n",
			cfg.Clients, cfg.Batches, cfg.CommitsPerClient, cfg.SyncDelay)
		sweep, err := harness.RunWALSweep(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "wal: %v\n", err)
			return 1
		}
		for _, c := range sweep.Cells {
			fmt.Printf("  c%-3d b%-2d commits=%-5d fsyncs=%-5d fsyncs/commit=%-6.3f group=%-6.2f max_group=%-3d commit_qps=%.0f\n",
				c.Clients, c.Batch, c.Commits, c.Fsyncs, c.FsyncsPerCommit, c.GroupSize, c.MaxGroup, c.CommitQPS)
		}
		if !writeBench("wal", *walOut, sweep) {
			return 1
		}
		if err := sweep.CheckGrouping(); err != nil {
			fmt.Fprintf(os.Stderr, "wal: group commit not amortizing: %v\n", err)
			return 1
		}
		return 0
	}

	if *txnMode {
		kind, ok := kindByName(*txnStrategy)
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown -txn-strategy %q\n", *txnStrategy)
			return 2
		}
		thetas, err := parseFloats(*txnThetas)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bad -txn-thetas: %v\n", err)
			return 2
		}
		updates, err := parseFloats(*txnUpdates)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bad -txn-updates: %v\n", err)
			return 2
		}
		counts, err := parseInts(*txnClients)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bad -txn-clients: %v\n", err)
			return 2
		}
		cfg := harness.DefaultTxnSweep()
		cfg.Base.Strategy = kind
		cfg.Base.DB.Seed = *seed
		cfg.Thetas, cfg.Updates, cfg.Clients = thetas, updates, counts
		if *txnOps > 0 {
			cfg.Base.OpsPerClient = *txnOps
		}
		if *latency > 0 {
			cfg.Base.DiskLatency = *latency
		}
		fmt.Printf("running txn contention sweep (%s, thetas=%v, updates=%v, clients=%v, ops=%d, seed=%d)...\n",
			kind, cfg.Thetas, cfg.Updates, cfg.Clients, cfg.Base.OpsPerClient, *seed)
		bench, err := harness.RunTxnSweep(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "txn: %v\n", err)
			return 1
		}
		for _, pt := range bench.Points {
			ratio := 0.0
			if pt.Latched.QPS > 0 {
				ratio = pt.Versioned.QPS / pt.Latched.QPS
			}
			fmt.Printf("  z=%-4g u=%-4g K=%-2d versioned=%-7.0f latched=%-7.0f qps (%.2fx) retr=%-7.0f upd=%-6.0f waits=%d\n",
				pt.Theta, pt.PrUpdate, pt.Clients, pt.Versioned.QPS, pt.Latched.QPS, ratio,
				pt.Versioned.RetrieveQPS, pt.Versioned.UpdateQPS, pt.Versioned.Txn.Waited)
		}
		if !writeBench("txn", *txnOut, bench) {
			return 1
		}
		return 0
	}

	if *slo {
		reg := obs.NewRegistry()
		liveReg.Store(reg)
		cfg := harness.ServeConfig{
			DB:           workload.Config{NumParents: 2000, Seed: *seed, ProbeBatch: true, PoolShards: *shards},
			Strategy:     strategy.DFS,
			Clients:      *sloClients,
			OpsPerClient: 40,
			PrUpdate:     0.05,
			NumTop:       8,
			DiskLatency:  *latency,
			SLO:          &harness.SLO{Target: *sloTarget, Threshold: *sloThreshold},
			Metrics:      reg,
		}
		if cfg.DiskLatency == 0 {
			cfg.DiskLatency = 100 * time.Microsecond
		}
		fmt.Printf("running SLO benchmark (clients=%d, p%g<=%s, seed=%d)...\n",
			cfg.Clients, *sloTarget*100, *sloThreshold, *seed)
		bench, err := harness.RunSLO(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "slo: %v\n", err)
			return 1
		}
		fmt.Printf("  %s\n", bench.Result)
		for _, kind := range []string{"retrieve", "update"} {
			if s := bench.Result.PerOp[kind]; s.Count > 0 {
				fmt.Printf("  %-9s %s\n", kind, s)
			}
		}
		for i, q := range bench.SlowQueries {
			if i >= 5 {
				fmt.Printf("  ... %d more slow queries in %s\n", len(bench.SlowQueries)-i, *sloOut)
				break
			}
			fmt.Printf("  slow[%d] %-14s client=%d dur=%-12s io=%d over_slo=%v\n",
				i, q.Name, q.Client, q.Duration, q.IO(), q.OverSLO)
		}
		if !writeBench("slo", *sloOut, bench) {
			return 1
		}
		if !bench.Result.SLOMet {
			fmt.Fprintf(os.Stderr, "slo: objective missed (%d ops at or over %s)\n",
				bench.Result.SLOViolations, *sloThreshold)
			return 1
		}
		return 0
	}

	if *throughput {
		var counts []int
		for _, s := range strings.Split(*clients, ",") {
			s = strings.TrimSpace(s)
			if s == "" {
				continue
			}
			n, err := strconv.Atoi(s)
			if err != nil || n < 1 {
				fmt.Fprintf(os.Stderr, "bad -clients value %q\n", s)
				return 2
			}
			counts = append(counts, n)
		}
		base := harness.ServeConfig{
			DB:           workload.Config{NumParents: 2000, Seed: *seed, ProbeBatch: true},
			Strategy:     strategy.DFS,
			OpsPerClient: 40,
			PrUpdate:     0.05,
			NumTop:       8,
			DiskLatency:  *latency,
		}
		if *watch > 0 {
			reg := obs.NewRegistry()
			liveReg.Store(reg)
			base.Metrics = reg
		}
		fmt.Printf("running throughput benchmark (clients=%v, shards=%d, seed=%d)...\n", counts, *shards, *seed)
		bench, err := harness.RunThroughput(base, *shards, counts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "throughput: %v\n", err)
			return 1
		}
		for i := range bench.Sharded {
			fmt.Printf("  sharded  %s\n", bench.Sharded[i])
			fmt.Printf("  baseline %s\n", bench.Baseline[i])
		}
		for k, s := range bench.Speedup {
			fmt.Printf("  speedup %s: %.2fx\n", k, s)
		}
		if !writeBench("throughput", *throughputOut, bench) {
			return 1
		}
		return 0
	}

	var sc harness.Scale
	switch strings.ToLower(*scale) {
	case "paper":
		sc = harness.PaperScale
	case "quick":
		sc = harness.QuickScale
	default:
		fmt.Fprintf(os.Stderr, "unknown scale %q (want paper or quick)\n", *scale)
		return 2
	}
	sc.Seed = *seed
	sc.Parallel = *parallel
	sc.DeviceLatency = *latency
	sc.Obs.Sink = sink

	var runs []harness.Experiment
	switch {
	case *all && *expName != "":
		fmt.Fprintln(os.Stderr, "-all and -exp are mutually exclusive")
		return 2
	case *all:
		runs = harness.Experiments
	case *expName != "":
		for _, name := range strings.Split(*expName, ",") {
			name = strings.TrimSpace(name)
			if name == "" {
				continue
			}
			e, ok := harness.FindExperiment(name)
			if !ok {
				fmt.Fprintf(os.Stderr, "unknown experiment %q; try -list\n", name)
				return 2
			}
			runs = append(runs, e)
		}
		if len(runs) == 0 {
			fmt.Fprintln(os.Stderr, "-exp names no experiment; try -list")
			return 2
		}
	default:
		flag.Usage()
		return 2
	}

	for _, e := range runs {
		// A fresh registry per experiment keeps the per-cell metric names
		// from colliding across experiments.
		if *metrics {
			sc.Obs.Metrics = obs.NewRegistry()
			liveReg.Store(sc.Obs.Metrics)
		}
		start := time.Now()
		fmt.Printf("running %s (%s, scale=%s, seed=%d)...\n", e.Name, e.Paper, *scale, *seed)
		table, err := e.Run(sc)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", e.Name, err)
			return 1
		}
		table.AddNote("elapsed %s", time.Since(start).Round(time.Millisecond))
		table.Fprint(os.Stdout)
		if *plot {
			harness.PlotFromTable(table, true, true).Fprint(os.Stdout)
			fmt.Println()
		}
		if *metrics {
			fmt.Printf("metrics for %s:\n", e.Name)
			sc.Obs.Metrics.WriteText(os.Stdout)
			fmt.Println()
		}
	}
	return 0
}

// kindByName resolves a strategy name as printed by Kind.String.
func kindByName(name string) (strategy.Kind, bool) {
	for _, k := range strategy.AllKindsWithAblations {
		if strings.EqualFold(k.String(), name) {
			return k, true
		}
	}
	return 0, false
}

func parseFloats(s string) ([]float64, error) {
	var out []float64
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		v, err := strconv.ParseFloat(part, 64)
		if err != nil || v < 0 {
			return nil, fmt.Errorf("bad value %q", part)
		}
		out = append(out, v)
	}
	return out, nil
}

func parseInts(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		n, err := strconv.Atoi(part)
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad value %q", part)
		}
		out = append(out, n)
	}
	return out, nil
}

// startWatch dumps the currently published registry to stderr every
// interval until the returned stop func is called — live progress for
// long benchmark runs.
func startWatch(interval time.Duration, reg *atomic.Pointer[obs.Registry]) func() {
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(interval)
		defer tick.Stop()
		for {
			select {
			case <-done:
				return
			case now := <-tick.C:
				r := reg.Load()
				if r == nil {
					continue
				}
				fmt.Fprintf(os.Stderr, "--- watch %s ---\n", now.Format("15:04:05"))
				r.WriteText(os.Stderr)
			}
		}
	}()
	return func() { close(done); wg.Wait() }
}

// reportSweep prints a chaos or crash sweep's violations and their
// count, then writes the sweep's envelope to path. It reports whether
// the write succeeded.
func reportSweep(name string, viol []harness.Violation, start time.Time, path string, env interface{ WriteJSON(io.Writer) error }) bool {
	for _, v := range viol {
		fmt.Fprintf(os.Stderr, "%s: VIOLATION %s\n", name, v)
	}
	fmt.Printf("  %d violation(s) in %s\n", len(viol), time.Since(start).Round(time.Millisecond))
	return writeBench(name, path, env)
}

// writeBench writes a benchmark's envelope to path and reports whether
// it succeeded; a failure is printed under name.
func writeBench(name, path string, env interface{ WriteJSON(io.Writer) error }) bool {
	f, err := os.Create(path)
	if err == nil {
		err = env.WriteJSON(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
		return false
	}
	fmt.Printf("wrote %s\n", path)
	return true
}
