// Kill-and-reopen differential chaos: every strategy is driven through
// seeded schedules that sever the database mid-run — buffer-pool frames
// die, the log survives only as its synced prefix plus a seeded slice
// of the unsynced tail (possibly cut mid-record), and torn half-writes
// may have landed on the disk. After recovery the contract is absolute:
// every acknowledged commit is readable, no torn page survives, and the
// rows equal a crash-free control that applied exactly the replayed
// commits. See DESIGN.md §12.
package harness

import (
	"fmt"
	"io"
	"math/rand"
	"time"

	"corep/internal/bench"
	"corep/internal/disk"
	"corep/internal/strategy"
	"corep/internal/workload"
)

// CrashConfig parameterizes one crash-chaos sweep.
type CrashConfig struct {
	DB         workload.Config
	Strategies []strategy.Kind

	// Schedules is how many seeded kill schedules run per strategy;
	// schedule s draws its crash point, mid-commit flavor, and surviving
	// tail length from Seed + s.
	Schedules int
	Seed      int64

	// Ops retrieves (mixed with updates at PrUpdate) form each schedule.
	Ops      int
	PrUpdate float64
	NumTop   int

	// PTorn is the probability a page write tears mid-page during the
	// schedule — the recovery path must heal every torn page from its
	// logged image.
	PTorn float64

	// Timeout bounds one schedule; exceeding it is a deadlock violation.
	// 0 means 120s.
	Timeout time.Duration
}

// DefaultCrashConfig sizes the sweep so 50 schedules × 6 strategies
// finish in seconds: a small database, update-heavy schedules (commits
// are what crash recovery is about), and a torn-write rate that fires
// several times per schedule. The prefetcher is on, and its worker
// timing moves which page write a torn-write draw lands on, so the
// commit and replay counts wander by a few between identical runs; with
// it off, two runs agree exactly.
func DefaultCrashConfig() CrashConfig {
	return CrashConfig{
		DB: workload.Config{
			NumParents:      400,
			Seed:            42,
			ProbeBatch:      true,
			PrefetchEnabled: true,
		},
		Strategies: strategy.AllKinds,
		Schedules:  50,
		Seed:       4242,
		Ops:        30,
		PrUpdate:   0.4,
		NumTop:     8,
		PTorn:      0.02,
	}
}

// CrashRun is the outcome of one kill schedule.
type CrashRun struct {
	Seed        int64 `json:"seed"`
	CrashAt     int   `json:"crash_at"`   // ops executed before the kill
	MidCommit   bool  `json:"mid_commit"` // severed during an unacknowledged commit's fsync
	KeptTail    int64 `json:"kept_tail"`  // unsynced log bytes that survived
	OpsOK       int   `json:"ops_ok"`
	CleanErrors int   `json:"clean_errors"`
	Rollbacks   int   `json:"rollbacks"` // failed updates undone by redo-from-log

	Acked            int   `json:"acked_commits"`
	ReplayedCommits  int   `json:"replayed_commits"`
	ReplayedImages   int   `json:"replayed_images"`
	DiscardedRecords int   `json:"discarded_records"`
	DiscardedBytes   int64 `json:"discarded_bytes"`
	RowsCompared     int   `json:"rows_compared"`

	Faults     disk.FaultStats `json:"faults"`
	Violations []Violation     `json:"violations,omitempty"`
}

// CrashStrategy aggregates one strategy's schedules.
type CrashStrategy struct {
	Strategy string      `json:"strategy"`
	Runs     []*CrashRun `json:"runs"`
}

// CrashBench is the full sweep, written to BENCH_crash.json.
type CrashBench struct {
	Config     string           `json:"config"`
	Schedules  int              `json:"schedules_per_strategy"`
	Ops        int              `json:"ops_per_schedule"`
	PrUpdate   float64          `json:"pr_update"`
	PTorn      float64          `json:"p_torn"`
	Strategies []*CrashStrategy `json:"strategies"`
	Violations int              `json:"violations"`
}

// Cells flattens the sweep into one envelope cell per strategy.
// Violations are the gate; the commit/replay volumes gate too. Seeded
// schedules fix them, but under DefaultCrashConfig the prefetcher's
// timing moves them by a few between runs, well inside the gate's
// tolerance.
func (b *CrashBench) Cells() []bench.Cell {
	var cells []bench.Cell
	for _, s := range b.Strategies {
		cells = append(cells, sumCell(s.Strategy, s.Runs, func(r *CrashRun) map[string]float64 {
			return map[string]float64{
				"violations":        float64(len(r.Violations)),
				"acked_commits":     float64(r.Acked),
				"replayed_commits":  float64(r.ReplayedCommits),
				"discarded_records": float64(r.DiscardedRecords),
				"rollbacks":         float64(r.Rollbacks),
				"clean_errors":      float64(r.CleanErrors),
				"rows_compared":     float64(r.RowsCompared),
			}
		}))
	}
	return cells
}

// WriteJSON writes the bench wrapped in the versioned envelope.
func (b *CrashBench) WriteJSON(w io.Writer) error { return writeEnvelope(w, "crash", b, b.Cells()) }

// AllViolations flattens every recorded violation.
func (b *CrashBench) AllViolations() []Violation {
	var out []Violation
	for _, s := range b.Strategies {
		for _, r := range s.Runs {
			out = append(out, r.Violations...)
		}
	}
	return out
}

// RunCrashChaos executes the sweep. The returned error covers
// harness-level failures only; durability failures are violations.
func RunCrashChaos(cfg CrashConfig) (*CrashBench, error) {
	sw := newSweep(cfg.Strategies, cfg.Schedules, cfg.Seed, cfg.Ops, 2, cfg.PrUpdate, cfg.NumTop, cfg.Timeout)
	out := &CrashBench{
		Config:    cfg.DB.WithDefaults().String(),
		Schedules: sw.schedules,
		Ops:       sw.ops,
		PrUpdate:  sw.prUpdate,
		PTorn:     cfg.PTorn,
	}
	runs := runSweep(sw, cfg.DB, false,
		func(kind strategy.Kind, dbCfg workload.Config, seed int64, _ bool) *CrashRun {
			return crashSchedule(cfg, sw, kind, dbCfg, seed)
		},
		func(seed int64, vs []Violation) *CrashRun { return &CrashRun{Seed: seed, Violations: vs} })
	for k, kind := range sw.kinds {
		out.Strategies = append(out.Strategies, &CrashStrategy{Strategy: kind.String(), Runs: runs[k]})
	}
	out.Violations = len(out.AllViolations())
	return out, nil
}

// crashSchedule runs one kill schedule: seed draws the crash point, the
// mid-commit flavor, the torn writes and the surviving log tail.
func crashSchedule(cfg CrashConfig, sw sweep, kind strategy.Kind, dbCfg workload.Config, seed int64) *CrashRun {
	run := &CrashRun{Seed: seed}
	rec := &recorder{strategy: kind.String(), seed: seed}
	defer func() { run.Violations = rec.violations() }()
	rng := rand.New(rand.NewSource(seed))

	db, st, err := buildStrategy(dbCfg, kind)
	if err != nil {
		rec.add("unattributed-error", "build: "+err.Error())
		return run
	}
	defer db.Close()
	ops := sw.genOps(db)
	if err := db.EnableWAL(0); err != nil {
		rec.add("unattributed-error", "enable WAL: "+err.Error())
		return run
	}

	// Schedule shape: kill after crashAt ops, half the time during an
	// unacknowledged commit's fsync (the mid-commit flavor below).
	crashAt := 1 + rng.Intn(len(ops)-1)
	midCommit := rng.Intn(2) == 0
	run.CrashAt = crashAt

	plan := disk.NewFaultPlan(disk.FaultPlanConfig{PTorn: cfg.PTorn, Seed: seed})
	db.Disk.SetFault(plan.Fn())

	// seqOp maps every logged commit (acknowledged or in-doubt) back to
	// its op, so the control can apply exactly the replayed set.
	seqOp := map[uint64]int{}
	var acked []uint64

	for i := 0; i < crashAt; i++ {
		op := ops[i]
		_, opErr, panicked := runOp(db, st, op)
		if panicked != "" {
			rec.at(i, "panic", panicked)
			return run
		}
		switch {
		case opErr == nil:
			run.OpsOK++
			if op.Kind == workload.OpUpdate {
				seq, cerr := db.WALCommit()
				if cerr != nil {
					rec.at(i, "unattributed-error", "commit: "+cerr.Error())
					return run
				}
				seqOp[seq] = i
				acked = append(acked, seq)
			}
		case disk.IsFault(opErr):
			run.CleanErrors++
			if op.Kind == workload.OpUpdate {
				// The op may have half-applied before the fault; the no-steal
				// gate kept every uncommitted byte in frames, so redo from
				// the log restores exactly the last committed state. The
				// rollback itself runs fault-free — recovery machinery is
				// not subject to the schedule's fault plan (killAndRecover
				// gives the post-crash replay the same dispensation).
				db.Disk.SetFault(nil)
				rerr := db.WALRollback()
				db.Disk.SetFault(plan.Fn())
				if rerr != nil {
					rec.at(i, "rollback", rerr.Error())
					return run
				}
				run.Rollbacks++
			}
		default:
			rec.at(i, "unattributed-error", opErr.Error())
			return run
		}
		if err := db.WALRelieve(); err != nil {
			rec.at(i, "unattributed-error", "pressure capture: "+err.Error())
			return run
		}
	}

	// Mid-commit flavor: run one more update whose commit fsync fails —
	// the mutation is in the log but unacknowledged when the kill lands.
	// Whether it survives depends on how much unsynced tail the crash
	// keeps; either way the control applies exactly the replayed set.
	if midCommit {
		for j := crashAt; j < len(ops); j++ {
			if ops[j].Kind != workload.OpUpdate {
				continue
			}
			db.WAL.Device().FailNextSync()
			_, opErr, panicked := runOp(db, st, ops[j])
			if panicked != "" {
				rec.at(j, "panic", panicked)
				return run
			}
			if opErr == nil {
				seq, cerr := db.WALCommit()
				if seq != 0 {
					seqOp[seq] = j // in-doubt: logged, never acknowledged
					if cerr == nil {
						acked = append(acked, seq)
					} else {
						run.MidCommit = true
					}
				}
			}
			break
		}
	}

	// The kill.
	run.Faults = plan.Stats()
	run.Acked = len(acked)
	keep, res := killAndRecover(db, rng, rec)
	run.KeptTail = keep
	if res == nil {
		return run
	}
	run.ReplayedCommits = len(res.Commits)
	run.ReplayedImages = res.Replayed
	run.DiscardedRecords = res.DiscardedRecords
	run.DiscardedBytes = res.DiscardedBytes

	// Guarantee 1: every acknowledged commit was replayed.
	replayed := make(map[uint64]bool, len(res.Commits))
	for _, seq := range res.Commits {
		replayed[seq] = true
	}
	for _, seq := range acked {
		if !replayed[seq] {
			rec.at(seqOp[seq], "lost-commit",
				fmt.Sprintf("acknowledged commit %d missing after recovery (%d replayed)", seq, len(res.Commits)))
		}
	}

	// Crash-free control: same build, then exactly the replayed updates
	// in log order (a build's ops are its seed's, so ops serve it too).
	ctl, cst, err := buildStrategy(dbCfg, kind)
	if err != nil {
		rec.add("unattributed-error", "control build: "+err.Error())
		return run
	}
	defer ctl.Close()
	for _, seq := range res.Commits {
		opIdx, ok := seqOp[seq]
		if !ok {
			rec.add("unknown-commit", fmt.Sprintf("recovery replayed commit %d that no op issued", seq))
			return run
		}
		if err := cst.Update(ctl, ops[opIdx]); err != nil {
			rec.at(opIdx, "unattributed-error", "control update: "+err.Error())
			return run
		}
	}

	// Guarantee 2+3: recovered rows equal the control's — the schedule's
	// own retrieves, plus full-range sweeps over each attribute so every
	// page (healed torn pages included) is read back and checked.
	var queries []workload.Op
	for _, op := range ops {
		if op.Kind == workload.OpRetrieve {
			queries = append(queries, op)
		}
	}
	run.RowsCompared = compareSweeps(db, st, ctl, cst, queries, rec)
	return run
}
