// The differential-harness kernel: the pieces the five chaos and crash
// scenarios (RunChaos, RunTxnChaos, RunCrashChaos, RunReclustChaos,
// RunReclustCrash) are built from. Each scenario drives a subject
// database through seeded schedules, holds it to a control, and reports
// every broken guarantee as a Violation. See DESIGN.md §9.
package harness

import (
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"corep/internal/bench"
	"corep/internal/disk"
	"corep/internal/object"
	"corep/internal/strategy"
	"corep/internal/txn"
	"corep/internal/wal"
	"corep/internal/workload"
)

// Violation is one broken guarantee.
type Violation struct {
	Strategy string `json:"strategy"`
	Seed     int64  `json:"seed"`
	OpIndex  int    `json:"op_index"`
	// Kind is one of panic | deadlock | wrong-rows | unattributed-error |
	// pin-leak | staged-leak | cache-invariant | torn-version |
	// lost-update | lost-commit | unknown-commit | rollback.
	Kind   string `json:"kind"`
	Detail string `json:"detail"`
}

func (v Violation) String() string {
	return fmt.Sprintf("%s seed=%d op=%d %s: %s", v.Strategy, v.Seed, v.OpIndex, v.Kind, v.Detail)
}

// recorder collects one schedule's violations. It is safe for
// concurrent use, so a hammer's goroutines share one.
type recorder struct {
	strategy string
	seed     int64
	mu       sync.Mutex
	list     []Violation
}

// at records a violation found at op index op.
func (r *recorder) at(op int, kind, detail string) {
	r.mu.Lock()
	r.list = append(r.list, Violation{Strategy: r.strategy, Seed: r.seed, OpIndex: op, Kind: kind, Detail: detail})
	r.mu.Unlock()
}

// add records a violation that belongs to no single op.
func (r *recorder) add(kind, detail string) { r.at(-1, kind, detail) }

func (r *recorder) violations() []Violation {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.list
}

// watchdog runs one schedule body and waits at most timeout for it. A
// body still running then is abandoned, with the database it holds, and
// deadlocked turns the single deadlock violation into the schedule's
// result.
func watchdog[R any](timeout time.Duration, strategy string, seed int64, body func() R, deadlocked func([]Violation) R) R {
	done := make(chan R, 1)
	go func() { done <- body() }()
	select {
	case r := <-done:
		return r
	case <-time.After(timeout):
		return deadlocked([]Violation{{Strategy: strategy, Seed: seed, OpIndex: -1,
			Kind: "deadlock", Detail: fmt.Sprintf("schedule still running after %s", timeout)}})
	}
}

// runOp executes one operation, converting a panic into a report
// instead of tearing the harness down. A retrieve returns its values.
func runOp(db *workload.DB, st strategy.Strategy, op workload.Op) (vals []int64, err error, panicked string) {
	defer func() {
		if r := recover(); r != nil {
			panicked = fmt.Sprintf("%v", r)
		}
	}()
	if op.Kind == workload.OpUpdate {
		return nil, st.Update(db, op), ""
	}
	res, err := st.Retrieve(db, strategy.Query{Lo: op.Lo, Hi: op.Hi, AttrIdx: op.AttrIdx})
	if res != nil {
		vals = res.Values
	}
	return vals, err, ""
}

// sweep is the strategy × seed shape of RunChaos and RunCrashChaos,
// with the defaults both apply.
type sweep struct {
	kinds     []strategy.Kind
	schedules int
	seed      int64
	ops       int
	prUpdate  float64
	numTop    int
	timeout   time.Duration
}

func newSweep(kinds []strategy.Kind, schedules int, seed int64, ops, minOps int, prUpdate float64, numTop int, timeout time.Duration) sweep {
	if len(kinds) == 0 {
		kinds = strategy.AllKinds
	}
	if ops < minOps {
		ops = 20
	}
	if numTop < 1 {
		numTop = 8
	}
	if timeout <= 0 {
		timeout = 120 * time.Second
	}
	return sweep{kinds: kinds, schedules: max(schedules, 1), seed: seed, ops: ops, prUpdate: prUpdate, numTop: numTop, timeout: timeout}
}

// genOps draws the schedule's op sequence from db's generator, so every
// build of one config draws the same ops.
func (sw sweep) genOps(db *workload.DB) []workload.Op {
	return db.GenSequence(sw.ops, sw.prUpdate, sw.numTop)
}

// runSweep runs each strategy's schedules in turn, each under the
// watchdog: with control set, first one fault-free control schedule
// (seed -1), then seed, seed+1, … for sw.schedules schedules. The
// result holds one row of runs per strategy.
func runSweep[R any](sw sweep, base workload.Config, control bool,
	schedule func(kind strategy.Kind, dbCfg workload.Config, seed int64, control bool) R,
	deadlocked func(seed int64, vs []Violation) R) [][]R {
	out := make([][]R, len(sw.kinds))
	for k, kind := range sw.kinds {
		dbCfg := provisionFor(kind, base.WithDefaults())
		one := func(seed int64, control bool) {
			out[k] = append(out[k], watchdog(sw.timeout, kind.String(), seed,
				func() R { return schedule(kind, dbCfg, seed, control) },
				func(vs []Violation) R { return deadlocked(seed, vs) }))
		}
		if control {
			one(-1, true)
		}
		for s := 0; s < sw.schedules; s++ {
			one(sw.seed+int64(s), false)
		}
	}
	return out
}

// writeEnvelope writes a sweep's payload and cells in the versioned
// envelope.
func writeEnvelope(w io.Writer, kind string, payload any, cells []bench.Cell) error {
	env, err := bench.New(kind, payload, cells)
	if err != nil {
		return err
	}
	return env.WriteJSON(w)
}

// sumCell is one strategy's envelope cell: each of metrics(run) summed
// over its runs.
func sumCell[R any](name string, runs []R, metrics func(R) map[string]float64) bench.Cell {
	c := bench.Cell{Name: name, Metrics: map[string]float64{}}
	for _, r := range runs {
		for k, v := range metrics(r) {
			c.Metrics[k] += v
		}
	}
	return c
}

// killAndRecover severs db as a crash would, keeping a seeded share of
// its unsynced log tail, and recovers it. Faults are lifted first:
// recovery models a clean restart on healthy hardware. On failure it
// records the violation and returns a nil result.
func killAndRecover(db *workload.DB, rng *rand.Rand, rec *recorder) (keep int64, res *wal.Result) {
	db.Disk.SetFault(nil)
	if unsynced := db.WAL.Device().Unsynced(); unsynced > 0 {
		keep = rng.Int63n(unsynced + 1)
	}
	res, err := db.CrashAndRecover(keep)
	if err != nil {
		rec.add("unattributed-error", "recover: "+err.Error())
		return keep, nil
	}
	return keep, res
}

// buildStrategy builds dbCfg and the kind strategy over it.
func buildStrategy(dbCfg workload.Config, kind strategy.Kind) (*workload.DB, strategy.Strategy, error) {
	db, err := workload.Build(dbCfg)
	if err != nil {
		return nil, nil, err
	}
	st, err := strategy.New(kind, db)
	if err != nil {
		db.Close()
		return nil, nil, err
	}
	return db, st, nil
}

// compareSweeps is the differential compare against a control: the
// retrieves in queries, then a full-range sweep over every ret
// attribute, must return the same values in the same order from the
// subject and from the control. It stops at the first query that fails
// or panics on either side and returns how many queries it compared.
func compareSweeps(db *workload.DB, st strategy.Strategy, ctl *workload.DB, cst strategy.Strategy, queries []workload.Op, rec *recorder) int {
	all := int64(db.Cfg.NumParents - 1)
	queries = slices.Clip(queries)
	for _, attr := range []int{workload.FieldRet1, workload.FieldRet2, workload.FieldRet3} {
		queries = append(queries, workload.Op{Kind: workload.OpRetrieve, Lo: 0, Hi: all, AttrIdx: attr})
	}
	rows := 0
	for qi, q := range queries {
		got, err, panicked := runOp(db, st, q)
		if err != nil || panicked != "" {
			rec.add(failKind(panicked), fmt.Sprintf("retrieve %d: %v%s", qi, err, panicked))
			return rows
		}
		want, err, panicked := runOp(ctl, cst, q)
		if err != nil || panicked != "" {
			rec.add("unattributed-error", fmt.Sprintf("control retrieve %d: %v%s", qi, err, panicked))
			return rows
		}
		rows++
		if !equalInt64(got, want) {
			rec.add("wrong-rows", fmt.Sprintf("retrieve %d [%d,%d] attr=%d: %d values differ from the control's %d",
				qi, q.Lo, q.Hi, q.AttrIdx, len(got), len(want)))
		}
	}
	return rows
}

// failKind names the violation of a failed op: a panic, or an error.
func failKind(panicked string) string {
	if panicked != "" {
		return "panic"
	}
	return "unattributed-error"
}

// sentinel is the value updater u writes in round r. Build values are
// below 2^30, so a sentinel is recognizable in any retrieve result and
// carries its updater and round.
func sentinel(u, r int) int64 { return int64(u+1)<<32 | int64(r) }

// sentinelOp rewrites every member of batch to sentinel(u, r) in one
// update.
func sentinelOp(batch []object.OID, u, r int) workload.Op {
	op := workload.Op{Kind: workload.OpUpdate, Targets: batch}
	for range batch {
		op.NewRet1 = append(op.NewRet1, sentinel(u, r))
	}
	return op
}

// hammer is the writers-vs-snapshot-auditors run of RunTxnChaos and
// RunReclustChaos. Updater u owns parent u's unit and commits the whole
// unit rounds times, round r stamped sentinel(u, r), while as many
// auditor goroutines check snapshots and an optional background
// goroutine (the reorganizer) runs until the writers are done. With the
// default overlap the units are disjoint, so only u's own commits touch
// its members and a batch seen at mixed rounds means a torn commit.
type hammer struct {
	name    string
	db      *workload.DB
	st      strategy.Strategy
	batches [][]object.OID
	rounds  int
	rec     *recorder
	audits  atomic.Int64
}

// newHammer builds dbCfg for kind with the version store on, lets setup
// prepare the database, and then arms cfg's fault plan, if it has one.
// Version installs are pure in-memory and never fault, but snapshot
// retrieves read base pages through the pool, so the plan exercises
// the degraded read paths under the atomicity contract.
func newHammer(name string, cfg ChaosConfig, dbCfg workload.Config, kind strategy.Kind, rec *recorder, defUpdaters int, setup func(h *hammer) error) (h *hammer, err error) {
	db, st, err := buildStrategy(dbCfg, kind)
	if err != nil {
		return nil, err
	}
	defer func() {
		if err != nil {
			db.Close()
		}
	}()
	h = &hammer{name: name, db: db, st: st, rounds: cfg.Ops, rec: rec}
	if h.rounds < 1 {
		h.rounds = 20
	}
	if err = db.ResetCold(); err != nil {
		return nil, err
	}
	db.EnableVersioning()
	updaters := cfg.ConcurrentUpdaters
	if updaters < 1 {
		updaters = defUpdaters
	}
	for u := 0; u < updaters; u++ {
		h.batches = append(h.batches, db.UnitOf(int64(u)))
		if len(h.batches[u]) == 0 {
			return nil, fmt.Errorf("harness: %s: parent %d has an empty unit", name, u)
		}
	}
	if setup != nil {
		if err = setup(h); err != nil {
			return nil, err
		}
	}
	if cfg.Plan != (disk.FaultPlanConfig{}) {
		pc := cfg.Plan
		pc.Seed = cfg.FaultSeed
		db.Disk.SetFault(disk.NewFaultPlan(pc).Fn())
	}
	return h, nil
}

// run starts the writers, the auditors and the background goroutine,
// and returns once all have stopped. Auditor g calls audit(g, i, snap)
// for its i-th pass with a fresh snapshot pinned; each auditor makes at
// least one pass and one more after the writers quiesce, since fast
// in-memory writers can finish every round before a slow
// (race-instrumented) auditor completes its first. A background that
// returns false stops early.
func (h *hammer) run(audit func(g, i int, snap *txn.Snapshot), background func() bool) {
	var (
		wg, rwg     sync.WaitGroup
		writersDone atomic.Bool
	)
	for u := range h.batches {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 1; r <= h.rounds; r++ {
				// Version installs never touch disk, so even with the
				// fault plan armed an update error is a real bug.
				if err := h.st.Update(h.db, sentinelOp(h.batches[u], u, r)); err != nil {
					h.rec.add("unattributed-error", fmt.Sprintf("updater %d round %d: %v", u, r, err))
					return
				}
			}
		}()
	}
	loop := func(pass func(i int) bool) {
		defer rwg.Done()
		for i := 0; ; i++ {
			done := writersDone.Load()
			if !pass(i) || done {
				return
			}
		}
	}
	for g := range h.batches {
		rwg.Add(1)
		go loop(func(i int) bool {
			snap := h.db.Versions.Begin()
			audit(g, i, snap)
			snap.Release()
			h.audits.Add(1)
			return true
		})
	}
	if background != nil {
		rwg.Add(1)
		go loop(func(int) bool { ok := background(); runtime.Gosched(); return ok })
	}
	wg.Wait()
	writersDone.Store(true)
	rwg.Wait()
}

// members counts the objects the updaters own.
func (h *hammer) members() int {
	n := 0
	for _, b := range h.batches {
		n += len(b)
	}
	return n
}

// auditRetrieve reads the updaters' parent range through the strategy's
// full read path, under snap if it is not nil. A fault error is clean
// degradation and any other error a violation; either way ok is false.
func (h *hammer) auditRetrieve(snap *txn.Snapshot) (vals []int64, ok bool) {
	res, err := h.st.Retrieve(h.db, strategy.Query{
		Lo: 0, Hi: int64(len(h.batches) - 1), AttrIdx: workload.FieldRet1, Snap: snap,
	})
	if err != nil {
		if !disk.IsFault(err) {
			h.rec.add("unattributed-error", "range retrieve: "+err.Error())
		}
		return nil, false
	}
	return res.Values, true
}

// auditBatch checks updater u's members as snap saw them: vals holds
// each member's value, a build value (below 2^32) where no round is
// visible. Commits are atomic, so the members show one round or none;
// two rounds, or a round beside build values, is a torn version.
func (h *hammer) auditBatch(u int, vals []int64, snap *txn.Snapshot) {
	builds, sentinels := 0, 0
	seen := int64(-1)
	for _, v := range vals {
		if v < 1<<32 {
			builds++
			continue
		}
		sentinels++
		if seen >= 0 && v != seen {
			h.rec.add("torn-version", fmt.Sprintf(
				"updater %d: sentinels %d and %d in one snapshot at epoch %d", u, seen, v, snap.Epoch()))
		}
		seen = v
	}
	if builds > 0 && sentinels > 0 {
		h.rec.add("torn-version", fmt.Sprintf(
			"updater %d: %d members at sentinel %d, %d still at build values, at epoch %d",
			u, sentinels, seen, builds, snap.Epoch()))
	}
}

// compareToControl is the hammer's differential check, run once the
// versions are drained: a fresh build of ctlCfg gets each updater's
// final batch applied once, and full-range sweeps of the subject must
// match it value for value.
func (h *hammer) compareToControl(ctlCfg workload.Config, kind strategy.Kind) error {
	ctl, cst, err := buildStrategy(ctlCfg, kind)
	if err != nil {
		return fmt.Errorf("harness: %s control: %w", h.name, err)
	}
	defer ctl.Close()
	for u, b := range h.batches {
		if err := cst.Update(ctl, sentinelOp(b, u, h.rounds)); err != nil {
			return fmt.Errorf("harness: %s control update: %w", h.name, err)
		}
	}
	compareSweeps(h.db, h.st, ctl, cst, nil, h.rec)
	return nil
}

// finish runs the checks every hammer ends with.
func (h *hammer) finish() {
	if n := h.db.Pool.PinnedCount(); n != 0 {
		h.rec.add("pin-leak", fmt.Sprintf("%d pages still pinned after %s", n, h.name))
	}
	if h.db.Cache != nil {
		if err := h.db.Cache.CheckInvariants(); err != nil {
			h.rec.add("cache-invariant", err.Error())
		}
	}
	if h.audits.Load() == 0 {
		h.rec.add("unattributed-error", "reader goroutines never completed an audit")
	}
}
