// Differential chaos harness: every strategy is driven through seeded
// fault schedules and held to one contract — a run either returns rows
// identical to the fault-free baseline or surfaces a clean error
// attributed to the injector (errors.Is(err, disk.ErrFaulted)). A
// panic, a hang, a leaked pin, a staged prefetch page left behind, a
// broken cache invariant, or a silently wrong answer is a violation.
package harness

import (
	"fmt"
	"io"
	"time"

	"corep/internal/bench"
	"corep/internal/disk"
	"corep/internal/obs"
	"corep/internal/strategy"
	"corep/internal/workload"
)

// ChaosConfig parameterizes one differential chaos sweep.
type ChaosConfig struct {
	DB         workload.Config
	Strategies []strategy.Kind

	// Schedules is how many seeded fault schedules run per strategy;
	// schedule s uses fault seed FaultSeed + s. A fault-free control
	// schedule always runs first.
	Schedules int
	FaultSeed int64

	// Ops retrieves (mixed with updates at PrUpdate) form each schedule,
	// regenerated identically for the baseline and every fault run.
	Ops      int
	PrUpdate float64
	NumTop   int

	// Plan is the fault mix; its Seed field is overridden per schedule.
	Plan disk.FaultPlanConfig

	// Timeout bounds one schedule; exceeding it is recorded as a
	// deadlock violation. 0 means 120s.
	Timeout time.Duration

	// ConcurrentUpdaters arms the versioned-store atomicity hammer
	// (RunTxnChaos): that many writer goroutines commit sentinel batches
	// while as many readers audit every snapshot for torn or lost
	// versions. 0 lets RunTxnChaos pick its default (2).
	ConcurrentUpdaters int

	// SlowLogSize, when positive, arms per-schedule tail sampling: every
	// operation is traced (full span tree plus per-op fault-plan deltas)
	// and the SlowLogSize slowest land in ChaosRun.SlowQueries. A
	// schedule is single-threaded, so unlike the serve tier the captured
	// I/O deltas are exact — a latency spike shows up as an entry whose
	// fault.spikes attribute names the injector. Zero disables capture
	// entirely (no tracer attached, nothing measured).
	SlowLogSize int
	// SlowThreshold marks entries at or over it as SLO violations
	// (0 = retain-slowest only).
	SlowThreshold time.Duration
}

// DefaultChaosConfig is a sweep over all six strategies sized so a
// 50-schedule run finishes in seconds: a small database, a mixed
// workload, and fault rates that fire a handful of times per schedule.
// Batched probes and the prefetcher are enabled — the concurrent code
// paths are exactly what fault coverage is for. The prefetcher's worker
// timing makes page-read counts (baseline_reads) wander by a read or two
// between identical runs; with it off, two runs agree exactly.
func DefaultChaosConfig() ChaosConfig {
	return ChaosConfig{
		DB: workload.Config{
			NumParents:      400,
			Seed:            42,
			ProbeBatch:      true,
			PrefetchEnabled: true,
		},
		Strategies: strategy.AllKinds,
		Schedules:  50,
		FaultSeed:  1000,
		Ops:        30,
		PrUpdate:   0.25,
		NumTop:     8,
		Plan: disk.FaultPlanConfig{
			PTransient:   0.003,
			TransientLen: 2,
			PPermanent:   0.0008,
			PSpike:       0.002,
			SpikeDur:     20 * time.Microsecond,
			PTorn:        0.001,
		},
	}
}

// ChaosRun is the outcome of one schedule (one strategy, one seed).
type ChaosRun struct {
	Seed          int64 `json:"fault_seed"`
	OpsOK         int   `json:"ops_ok"`
	CleanErrors   int   `json:"clean_errors"` // attributed fault errors surfaced to the caller
	FailedUpdates int   `json:"failed_updates"`
	RowsCompared  int   `json:"rows_compared"` // retrieves checked against the baseline

	Faults        disk.FaultStats `json:"faults"`
	Retries       int64           `json:"buffer_retries"`
	Recovered     int64           `json:"buffer_recovered"`
	CacheDegraded int64           `json:"cache_degraded"`
	CacheOrphans  int64           `json:"cache_orphans"`
	PrefetchErrs  int64           `json:"prefetch_fetch_errors"`
	Violations    []Violation     `json:"violations,omitempty"`

	// SlowQueries is the schedule's tail sample (ChaosConfig.SlowLogSize
	// slowest operations, exact span trees, fault-plan attr deltas).
	SlowQueries []obs.SlowEntry `json:"slow_queries,omitempty"`

	rows  [][]int64 // a baseline's sorted retrieve rows, by op index
	reads int64     // page reads of the measured phase
}

// ChaosStrategy aggregates one strategy's schedules.
type ChaosStrategy struct {
	Strategy      string      `json:"strategy"`
	BaselineReads int64       `json:"baseline_reads"`
	Control       *ChaosRun   `json:"control"` // fault-free differential run
	Runs          []*ChaosRun `json:"runs"`
}

// ChaosBench is the full sweep, written to BENCH_chaos.json.
type ChaosBench struct {
	Config     string               `json:"config"`
	Schedules  int                  `json:"schedules_per_strategy"`
	Ops        int                  `json:"ops_per_schedule"`
	PrUpdate   float64              `json:"pr_update"`
	NumTop     int                  `json:"num_top"`
	Plan       disk.FaultPlanConfig `json:"fault_plan"`
	Strategies []*ChaosStrategy     `json:"strategies"`
	Violations int                  `json:"violations"`
}

// schedules lists the strategy's runs, control first.
func (s *ChaosStrategy) schedules() []*ChaosRun {
	if s.Control == nil {
		return s.Runs
	}
	return append([]*ChaosRun{s.Control}, s.Runs...)
}

// Cells flattens the sweep into one envelope cell per strategy.
// Violations and baseline reads gate. Seeded schedules fix both, but
// under DefaultChaosConfig the prefetcher's timing moves baseline reads
// by a read or two between runs, well inside the gate's tolerance;
// clean-error/retry counts legitimately wander with the fault mix and
// stay informational.
func (b *ChaosBench) Cells() []bench.Cell {
	var cells []bench.Cell
	for _, s := range b.Strategies {
		c := sumCell(s.Strategy, s.schedules(), func(r *ChaosRun) map[string]float64 {
			return map[string]float64{
				"violations":   float64(len(r.Violations)),
				"clean_errors": float64(r.CleanErrors),
				"ops_ok":       float64(r.OpsOK),
				"retries":      float64(r.Retries),
				"recovered":    float64(r.Recovered),
			}
		})
		c.Metrics["baseline_reads"] = float64(s.BaselineReads)
		cells = append(cells, c)
	}
	return cells
}

// WriteJSON writes the bench wrapped in the versioned envelope.
func (b *ChaosBench) WriteJSON(w io.Writer) error { return writeEnvelope(w, "chaos", b, b.Cells()) }

// AllViolations flattens every recorded violation.
func (b *ChaosBench) AllViolations() []Violation {
	var out []Violation
	for _, s := range b.Strategies {
		for _, r := range s.schedules() {
			out = append(out, r.Violations...)
		}
	}
	return out
}

// RunChaos executes the sweep. The returned error covers harness-level
// failures only (a baseline that cannot even build); resilience
// failures are returned as violations in the bench.
func RunChaos(cfg ChaosConfig) (*ChaosBench, error) {
	sw := newSweep(cfg.Strategies, cfg.Schedules, cfg.FaultSeed, cfg.Ops, 1, cfg.PrUpdate, cfg.NumTop, cfg.Timeout)
	out := &ChaosBench{
		Config:    cfg.DB.WithDefaults().String(),
		Schedules: sw.schedules,
		Ops:       sw.ops,
		PrUpdate:  sw.prUpdate,
		NumTop:    sw.numTop,
		Plan:      cfg.Plan.WithDefaults(),
	}
	out.Plan.Seed = cfg.FaultSeed

	// Fault-free baselines: the rows and page reads every schedule of a
	// strategy is held to.
	bases := make(map[strategy.Kind]*ChaosRun)
	for _, kind := range sw.kinds {
		base := chaosSchedule(cfg, sw, kind, provisionFor(kind, cfg.DB.WithDefaults()), -1, false, nil)
		if len(base.Violations) > 0 {
			return nil, fmt.Errorf("chaos: %s: baseline: %s", kind, base.Violations[0])
		}
		bases[kind] = base
	}
	runs := runSweep(sw, cfg.DB, true,
		func(kind strategy.Kind, dbCfg workload.Config, seed int64, control bool) *ChaosRun {
			return chaosSchedule(cfg, sw, kind, dbCfg, seed, !control, bases[kind])
		},
		func(seed int64, vs []Violation) *ChaosRun { return &ChaosRun{Seed: seed, Violations: vs} })
	for k, kind := range sw.kinds {
		out.Strategies = append(out.Strategies, &ChaosStrategy{
			Strategy: kind.String(), BaselineReads: bases[kind].reads, Control: runs[k][0], Runs: runs[k][1:],
		})
	}
	out.Violations = len(out.AllViolations())
	return out, nil
}

// chaosSchedule runs the op sequence once on a fresh build of dbCfg,
// under the fault plan of seed when faulted. Its retrieves must return
// base's rows; with base nil the run is the fault-free baseline and
// records its rows instead. With the prefetcher off the fault-free
// control must also read exactly the baseline's pages: without
// worker/consumer timing races the count is bit-identical — the
// regression gate for "retry plumbing changed nothing when faults are
// off".
func chaosSchedule(cfg ChaosConfig, sw sweep, kind strategy.Kind, dbCfg workload.Config, seed int64, faulted bool, base *ChaosRun) *ChaosRun {
	run := &ChaosRun{Seed: seed}
	rec := &recorder{strategy: kind.String(), seed: seed}
	defer func() { run.Violations = rec.violations() }()
	db, st, err := buildStrategy(dbCfg, kind)
	if err != nil {
		rec.add("unattributed-error", "build: "+err.Error())
		return run
	}
	defer db.Close()
	ops := sw.genOps(db)
	if err := db.ResetCold(); err != nil {
		rec.add("unattributed-error", "reset: "+err.Error())
		return run
	}
	startReads := db.Disk.Stats().Reads
	poolBefore := db.Pool.Stats()

	var plan *disk.FaultPlan
	if faulted {
		pc := cfg.Plan
		pc.Seed = seed
		plan = disk.NewFaultPlan(pc)
		db.Disk.SetFault(plan.Fn())
	}

	// Tail sampling: with a slow log armed every op runs under a
	// collector-backed tracer (the schedule is single-threaded, so the
	// swap is safe and the captured deltas exact) and fault-plan stat
	// deltas ride along as span attributes.
	var slowLog *obs.SlowLog
	if cfg.SlowLogSize > 0 {
		slowLog = obs.NewSlowLog(cfg.SlowLogSize, cfg.SlowThreshold)
		defer func() { run.SlowQueries = slowLog.Snapshot() }()
	}

	// diverged flips once an update fails: some targets may hold new
	// values and some old, so later rows are legitimately unlike the
	// baseline and comparison stops. Everything else still applies.
	diverged := false
	retrieveIdx := 0
	for i, op := range ops {
		var col *obs.Collector
		var faultsBefore disk.FaultStats
		if slowLog != nil {
			col = obs.NewCollector()
			db.AttachObs(obs.Options{Sink: col})
			if plan != nil {
				faultsBefore = plan.Stats()
			}
		}
		opStart := time.Now()
		vals, opErr, panicked := runOp(db, st, op)
		if slowLog != nil {
			dur := time.Since(opStart)
			db.AttachObs(obs.Options{})
			name := "chaos.retrieve"
			if op.Kind == workload.OpUpdate {
				name = "chaos.update"
			}
			e := obs.SlowEntry{Name: name, Start: opStart, Duration: dur, Spans: col.Spans()}
			if plan != nil {
				fd := plan.Stats()
				e.Attrs = []obs.Attr{
					{Key: "fault.injected", Val: fd.Injected - faultsBefore.Injected},
					{Key: "fault.spikes", Val: fd.Spikes - faultsBefore.Spikes},
					{Key: "fault.transient", Val: fd.Transient - faultsBefore.Transient},
					{Key: "fault.permanent_hits", Val: fd.PermanentHits - faultsBefore.PermanentHits},
				}
			}
			if opErr != nil {
				e.Err = opErr.Error()
			}
			if panicked != "" {
				e.Err = "panic: " + panicked
			}
			slowLog.Offer(e)
		}
		if panicked != "" {
			rec.at(i, "panic", panicked)
			break
		}
		switch {
		case opErr == nil:
			run.OpsOK++
			if base == nil {
				run.rows = append(run.rows, sortedVals(vals))
			} else if op.Kind == workload.OpRetrieve && !diverged {
				want := base.rows[i]
				run.RowsCompared++
				if !equalInt64(sortedVals(vals), want) {
					rec.at(i, "wrong-rows", fmt.Sprintf("retrieve %d returned %d values that differ from the fault-free baseline (%d values)",
						retrieveIdx, len(vals), len(want)))
				}
			}
		case disk.IsFault(opErr):
			run.CleanErrors++
			if op.Kind == workload.OpUpdate {
				run.FailedUpdates++
				diverged = true
			}
		default:
			rec.at(i, "unattributed-error", opErr.Error())
			if op.Kind == workload.OpUpdate {
				diverged = true
			}
		}
		if op.Kind == workload.OpRetrieve {
			retrieveIdx++
		}
		if n := db.Pool.PinnedCount(); n != 0 {
			rec.at(i, "pin-leak", fmt.Sprintf("%d pages still pinned after op", n))
			break // later ops would wedge on the leaked pins
		}
		if n := db.Pool.Prefetcher().StagedCount(); n != 0 {
			rec.at(i, "staged-leak", fmt.Sprintf("%d prefetched pages still staged after op", n))
			break
		}
	}

	// Snapshot the measured-phase reads before the post-schedule audit
	// (CheckInvariants probes the hash file — real I/O).
	endReads := db.Disk.Stats().Reads

	// Post-schedule: lift the faults and audit the survivors. The fault
	// plan's permanence lives in the plan, so a condemned page reads fine
	// again — the cache invariant sweep does real I/O safely.
	db.Disk.SetFault(nil)
	if plan != nil {
		run.Faults = plan.Stats()
	}
	if db.Cache != nil {
		if err := db.Cache.CheckInvariants(); err != nil {
			rec.add("cache-invariant", err.Error())
		}
		cs := db.Cache.Stats()
		run.CacheDegraded = cs.Degraded
		run.CacheOrphans = cs.Orphans
	}
	poolAfter := db.Pool.Stats().Sub(poolBefore)
	run.Retries = poolAfter.Retries
	run.Recovered = poolAfter.Recovered
	run.PrefetchErrs = db.Pool.Prefetcher().Stats().FetchErrs
	run.reads = endReads - startReads
	if !faulted && base != nil && !dbCfg.PrefetchEnabled && run.reads != base.reads {
		rec.add("wrong-rows", fmt.Sprintf("control run read %d pages, baseline read %d — fault-free behaviour drifted", run.reads, base.reads))
	}
	return run
}
