package harness

import (
	"fmt"
	"math/rand"
	"slices"
	"sync/atomic"

	"corep/internal/disk"
	"corep/internal/object"
	"corep/internal/obs"
	"corep/internal/reclust"
	"corep/internal/strategy"
	"corep/internal/txn"
	"corep/internal/workload"
)

// Reclustering chaos: the online reorganizer runs concurrently with
// versioned updaters and snapshot readers under a disk fault plan
// (RunReclustChaos), and under seeded kill schedules with the WAL
// armed (RunReclustCrash). The contracts are the differential ones the
// other chaos tiers enforce: rows identical to a never-reclustered
// control, no torn reads through the full retrieve path, no pin leaks,
// no broken cache invariants — and after a crash, every object
// readable exactly once (no lost and no duplicated placements).

// reclustChaosCfg derives the subject database configuration: the
// clustered layout in its deliberately scattered form, with an outside
// cache in front so the reorganizer's invalidation path runs.
func reclustChaosCfg(base workload.Config) workload.Config {
	c := base.WithDefaults()
	c.Clustered = true
	c.ScatterClusters = true
	if c.CacheUnits == 0 {
		c.CacheUnits = workload.DefaultCacheUnits
	}
	return c
}

// RunReclustChaos hammers a reclustering database with concurrent
// versioned updaters, snapshot readers, and a migration goroutine, all
// under the config's fault plan. Updater u owns parent u's unit and
// commits round-stamped sentinel batches; readers audit every
// snapshot retrieve for torn groups (a unit showing two different
// sentinels, or a sentinel mixed with build values); the reclusterer
// migrates hot units in small batches the whole time — a faulted batch
// must drop cleanly, publishing nothing. After the writers quiesce the
// versions drain into the base layout and full-attribute sweeps are
// compared value-for-value against a never-reclustered control build.
func RunReclustChaos(cfg ChaosConfig) ([]Violation, error) {
	dbCfg := reclustChaosCfg(cfg.DB)
	rec := &recorder{strategy: "dfsclust+reclust", seed: cfg.FaultSeed}
	h, err := newHammer("reclust chaos", cfg, dbCfg, strategy.DFSCLUST, rec, 3, func(h *hammer) error {
		if err := h.db.EnableReclustering(0, 0); err != nil {
			return err
		}
		h.db.AttachObs(obs.Options{}) // joins the heat feeder to the span tee
		// Heat the updaters' parents before anything runs. ReclustStep
		// moves nothing while no unit is hot, and the writers can finish
		// before an auditor's retrieve has heated one, leaving the
		// reorganizer nothing to do for the whole faulted phase.
		for i := 0; i < 3; i++ {
			h.auditRetrieve(nil)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	defer h.db.Close()
	db, st, batches := h.db, h.st, h.batches

	var migrated, migErrs atomic.Int64
	h.run(func(_, _ int, snap *txn.Snapshot) {
		// One audit retrieves the updaters' parent range under one
		// snapshot and checks each unit's slice of the result:
		// all-sentinel groups must agree on one round, and a sentinel
		// mixed with build values is a torn read — regardless of whether
		// the values came off base pages, migrated extent pages, or the
		// version overlay.
		vals, ok := h.auditRetrieve(snap)
		if !ok {
			return
		}
		if len(vals) != h.members() {
			rec.add("wrong-rows", fmt.Sprintf(
				"snapshot retrieve returned %d values, want %d (lost or duplicated members)", len(vals), h.members()))
			return
		}
		for u, b := range batches {
			h.auditBatch(u, vals[:len(b)], snap)
			vals = vals[len(b):]
		}
	}, func() bool {
		// The reorganizer: small batches, continuously, for the whole
		// run. A faulted batch is clean degradation — nothing published
		// — but any other error is a bug in the migration protocol.
		n, err := db.ReclustStep(2)
		switch {
		case err == nil:
			migrated.Add(int64(n))
		case disk.IsFault(err):
			migErrs.Add(1)
		default:
			rec.add("unattributed-error", "reclust step: "+err.Error())
			return false
		}
		return true
	})

	// Quiesce: lift the faults, migrate the updaters' parents if the
	// faulted phase never got to them, and drain the version store
	// through the strategy's own update path (which now write-throughs
	// to the migrated copies).
	db.Disk.SetFault(nil)
	if _, err := db.ReclustStep(len(batches)); err != nil {
		rec.add("unattributed-error", "post-fault reclust step: "+err.Error())
	}
	if _, err := db.DrainVersions(func(op workload.Op) error { return st.Update(db, op) }); err != nil {
		rec.add("unattributed-error", "drain: "+err.Error())
	}

	// Control: identical scattered build, never reclustered, with each
	// updater's final batch applied once. Full-range sweeps over every
	// attribute must agree value for value — same rows, same order.
	ctlCfg := dbCfg
	ctlCfg.CacheUnits = 0
	if err := h.compareToControl(ctlCfg, strategy.DFSCLUST); err != nil {
		return rec.violations(), err
	}
	h.finish()
	if migrated.Load() == 0 && migErrs.Load() == 0 {
		rec.add("unattributed-error", "reorganizer never ran a batch")
	}
	return rec.violations(), nil
}

// RunReclustCrash runs seeded kill schedules against a reclustering
// database with the WAL armed: feed the heat tracker, commit a few
// migration batches, maybe leave one batch in doubt (its fsync fails,
// so the placements are logged but never acknowledged or published),
// then sever the process keeping a seeded slice of the unsynced log
// tail. Recovery must restore exactly the durable placements — the
// last committed metadata blob, which is either the last acknowledged
// batch's or, when the in-doubt commit survived in the kept tail, the
// in-doubt one's — and every object must read back exactly once,
// checked value-for-value against a crash-free never-reclustered
// control. Migration must also still work on the recovered database.
func RunReclustCrash(cfg CrashConfig) ([]Violation, error) {
	if cfg.NumTop < 1 {
		cfg.NumTop = 4
	}
	sw := newSweep([]strategy.Kind{strategy.DFSCLUST}, cfg.Schedules, cfg.Seed, cfg.Ops, 1, 0, cfg.NumTop, cfg.Timeout)
	// The sweep provisions DFSCLUST without an outside cache: cache pages
	// are exempt from write-ahead, so the schedules stay about placements.
	base := reclustChaosCfg(cfg.DB)
	if base.ZipfTheta == 0 {
		base.ZipfTheta = 0.9
	}
	runs := runSweep(sw, base, false,
		func(_ strategy.Kind, dbCfg workload.Config, seed int64, _ bool) []Violation {
			rec := &recorder{strategy: "dfsclust+reclust", seed: seed}
			reclustCrashSchedule(sw, dbCfg, seed, cfg.PTorn, rec)
			return rec.violations()
		},
		func(_ int64, vs []Violation) []Violation { return vs })
	return slices.Concat(runs[0]...), nil
}

func reclustCrashSchedule(sw sweep, dbCfg workload.Config, seed int64, pTorn float64, rec *recorder) {
	rng := rand.New(rand.NewSource(seed))
	dbCfg.Seed = seed
	fail := func(what string, err error) { rec.add("unattributed-error", what+": "+err.Error()) }

	db, st, err := buildStrategy(dbCfg, strategy.DFSCLUST)
	if err != nil {
		fail("build", err)
		return
	}
	defer db.Close()
	if err := db.EnableReclustering(0, 0); err != nil {
		fail("enable reclustering", err)
		return
	}
	db.AttachObs(obs.Options{})
	if err := db.EnableWAL(0); err != nil {
		fail("enable WAL", err)
		return
	}
	if pTorn > 0 {
		db.Disk.SetFault(disk.NewFaultPlan(disk.FaultPlanConfig{PTorn: pTorn, Seed: seed}).Fn())
	}

	// Feed the heat tracker with the schedule's skewed retrieves.
	queries := sw.genOps(db)
	for _, op := range queries {
		if _, err := st.Retrieve(db, strategy.Query{Lo: op.Lo, Hi: op.Hi, AttrIdx: op.AttrIdx}); err != nil {
			fail("heat retrieve", err)
			return
		}
	}

	// Committed batches, snapshotting the placement map after each: the
	// last snapshot is what a crash discarding the in-doubt tail must
	// restore.
	nBatches := 1 + rng.Intn(3)
	for b := 0; b < nBatches; b++ {
		if _, err := db.ReclustStep(2 + rng.Intn(3)); err != nil {
			fail(fmt.Sprintf("batch %d", b), err)
			return
		}
	}
	committed := db.Reclust.Place.Snapshot()

	// Maybe one in-doubt batch: its fsync fails, so ReclustStep drops it
	// without publishing — but the records are in the log, and whether
	// the commit survives depends on how much unsynced tail the crash
	// keeps.
	inDoubt := rng.Intn(2) == 0
	if inDoubt {
		db.WAL.Device().FailNextSync()
		if _, err := db.ReclustStep(2); err == nil {
			rec.add("unattributed-error", "in-doubt batch: fsync failure did not surface")
			return
		}
		if got := db.Reclust.Place.Len(); got != len(committed) {
			rec.add("torn-version", fmt.Sprintf(
				"in-doubt batch published %d placements despite failed commit (want %d)", got, len(committed)))
			return
		}
	}

	// The kill.
	_, res := killAndRecover(db, rng, rec)
	if res == nil {
		return
	}
	if len(res.Commits) < nBatches {
		rec.add("lost-commit", fmt.Sprintf(
			"recovery replayed %d commits, %d migration batches were acknowledged", len(res.Commits), nBatches))
	}

	// The durable placements are all-or-nothing per batch: the restored
	// map equals the last acknowledged snapshot, except when the
	// in-doubt commit's bytes fully survived in the kept tail — then it
	// strictly extends it. Never anything in between.
	restored := db.Reclust.Place.Snapshot()
	switch {
	case reclustPlacementsEqual(restored, committed):
		// in-doubt batch (if any) discarded — the common case
	case inDoubt && len(restored) > len(committed) && reclustPlacementsContain(restored, committed):
		// in-doubt commit survived whole
	default:
		rec.add("torn-version", fmt.Sprintf(
			"recovery restored %d placements, last acknowledged batch had %d (in-doubt=%v) — partial batch",
			len(restored), len(committed), inDoubt))
	}

	// Exactly-once readability: the schedule's own retrieves and full
	// sweeps, checked against a crash-free, never-reclustered control of
	// the same config.
	ctl, cst, err := buildStrategy(dbCfg, strategy.DFSCLUST)
	if err != nil {
		fail("control build", err)
		return
	}
	defer ctl.Close()
	compareSweeps(db, st, ctl, cst, queries, rec)

	// The recovered database keeps reorganizing: one more batch (the WAL
	// is gone, so it publishes directly), then the rows must still match.
	if _, err := db.ReclustStep(2); err != nil {
		fail("post-recovery reclust step", err)
		return
	}
	compareSweeps(db, st, ctl, cst, queries, rec)
	if n := db.Pool.PinnedCount(); n != 0 {
		rec.add("pin-leak", fmt.Sprintf("%d pages still pinned after crash schedule", n))
	}
}

// reclustPlacementsEqual reports whether two placement snapshots agree
// on every OID's RID (epochs are volatile and ignored).
func reclustPlacementsEqual(a, b map[object.OID]reclust.Entry) bool {
	return len(a) == len(b) && reclustPlacementsContain(a, b)
}

// reclustPlacementsContain reports whether every placement of sub is
// present in super with the same RID.
func reclustPlacementsContain(super, sub map[object.OID]reclust.Entry) bool {
	for oid, want := range sub {
		got, ok := super[oid]
		if !ok || got.RID != want.RID {
			return false
		}
	}
	return true
}
