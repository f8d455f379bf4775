package main

import (
	"fmt"
	"runtime"
	"time"

	"corep/internal/object"
	"corep/internal/obs"
	"corep/internal/strategy"
	"corep/internal/tuple"
	"corep/internal/workload"
)

// The paper's database (§4): 10,000 parents of 200 bytes, SizeUnit 5,
// UseFactor 5, so 2,000 units over 10,000 children of 100 bytes, in 2 KB
// pages under a 100-page buffer pool.
func paperConfig(seed int64, cacheUnits int) workload.Config {
	return workload.Config{
		NumParents: workload.DefaultNumParents,
		SizeUnit:   workload.DefaultSizeUnit,
		UseFactor:  5,
		PoolPages:  workload.DefaultPoolPages,
		CacheUnits: cacheUnits,
		Seed:       seed,
	}
}

// paperWorkload is a workload over workload.DB and one strategy.
type paperWorkload struct {
	name       string
	kind       strategy.Kind
	cacheUnits int     // outside-cache size in units; 0 builds none
	numTops    []int   // NumTop is drawn uniformly from these
	prUpdate   float64 // Pr(UPDATE)
	// renewEvery > 0 replaces the database with a fresh build of the
	// same seed every renewEvery ops, between ops and untimed (see
	// renew). Only a retrieve-only workload may renew: the fresh build
	// holds the load-time values.
	renewEvery                int
	warmup, countOps, partOps int
}

func paperSpec(w paperWorkload) spec {
	return spec{
		name:     w.name,
		warmup:   w.warmup,
		countOps: w.countOps,
		partOps:  w.partOps,
		build: func(seed int64) (target, time.Duration, error) {
			t := &paperTarget{w: w, cfg: paperConfig(seed, w.cacheUnits), vals: map[uint16][][3]int64{}}
			t0 := time.Now()
			if err := t.open(); err != nil {
				return nil, 0, err
			}
			d := time.Since(t0)
			return t, d, t.readModel()
		},
	}
}

// paperTarget drives the workload's strategy over a workload.DB with
// ops from the program's own generator, and models every child's
// ret1..ret3 to check each retrieve.
type paperTarget struct {
	w   paperWorkload
	cfg workload.Config

	db *workload.DB
	st strategy.Strategy
	// gen generates the ops. It is db itself unless the database is
	// renewed; then it is a build of the same seed that never runs an
	// op, so the sequence continues across renewals.
	gen *workload.DB

	sinceRenew int // ops since db was built
	// base holds the counters of replaced databases; start is db's
	// counters when it was built.
	base, start counts
	clock       *spanClock

	pending []workload.Op
	op      workload.Op
	res     *strategy.Result

	// vals[relID][key] holds a child's ret1..ret3, read once at set-up
	// and then kept current from each update op's NewRet1.
	vals map[uint16][][3]int64
}

// genChunk is how many retrieves one call of the generator produces;
// the sequence is an endless concatenation of such chunks.
const genChunk = 1000

// open builds a fresh database and strategy.
func (t *paperTarget) open() error {
	db, err := workload.Build(t.cfg)
	if err != nil {
		return err
	}
	st, err := strategy.New(t.w.kind, db)
	if err != nil {
		return err
	}
	t.db, t.st = db, st
	t.start = t.layerCounts()
	return nil
}

// renew replaces the database with a fresh build of the same seed.
//
// The program never frees a page of its simulated disk, and each BFS
// query leaves its temps behind there: about 0.4 MB a query. Renewing
// bounds the memory a run holds and keeps heap_peak_mb independent of
// how many ops fit in the run; the leak still shows in it.
func (t *paperTarget) renew() error {
	t.base = t.counts()
	if err := t.open(); err != nil {
		return err
	}
	t.trace(t.clock)
	t.sinceRenew = 0
	// Collect the dropped database now, between ops, so that its
	// collection is not charged to the ops that follow.
	runtime.GC()
	return nil
}

// readModel reads every child's values and sets up the generator.
func (t *paperTarget) readModel() error {
	db := t.db
	for _, rel := range db.Children {
		n := db.ChildCount(rel.ID)
		vs := make([][3]int64, n)
		err := rel.Tree.Range(0, int64(n-1), func(key int64, payload []byte) (bool, error) {
			row, err := decodeChild(db, payload)
			if err != nil {
				return false, err
			}
			vs[key] = row
			return true, nil
		})
		if err != nil {
			return fmt.Errorf("reading child values: %w", err)
		}
		t.vals[rel.ID] = vs
	}
	// Reading the model went through the pool: start the ops cold.
	if err := db.ResetCold(); err != nil {
		return err
	}
	t.start = t.layerCounts()
	t.gen = db
	if t.w.renewEvery > 0 {
		gen, err := workload.Build(t.cfg)
		if err != nil {
			return err
		}
		t.gen = gen
	}
	return nil
}

func decodeChild(db *workload.DB, payload []byte) ([3]int64, error) {
	var out [3]int64
	for i := range out {
		v, err := tuple.DecodeField(db.ChildSchema, payload, workload.FieldRet1+i)
		if err != nil {
			return out, err
		}
		out[i] = v.Int
	}
	return out, nil
}

func (t *paperTarget) next() (bool, uint64) {
	if t.w.renewEvery > 0 && t.sinceRenew == t.w.renewEvery {
		if err := t.renew(); err != nil {
			panic(err) // the same build succeeded at set-up
		}
	}
	t.sinceRenew++
	if len(t.pending) == 0 {
		t.pending = t.gen.GenMixedSequence(genChunk, t.w.prUpdate, t.w.numTops)
	}
	t.op, t.pending = t.pending[0], t.pending[1:]
	t.res = nil
	if t.op.Kind == workload.OpUpdate {
		h := uint64(len(t.op.Targets))
		for i, oid := range t.op.Targets {
			h = fold(h, uint64(oid))
			h = fold(h, uint64(t.op.NewRet1[i]))
		}
		return true, h
	}
	return false, fold(fold(uint64(t.op.Lo), uint64(t.op.Hi)), uint64(t.op.AttrIdx))
}

func (t *paperTarget) skip(n int) {
	for ; n > 0; n-- {
		if len(t.pending) == 0 {
			t.pending = t.gen.GenMixedSequence(genChunk, t.w.prUpdate, t.w.numTops)
		}
		t.pending = t.pending[1:]
	}
}

func (t *paperTarget) exec() error {
	if t.op.Kind == workload.OpUpdate {
		return t.st.Update(t.db, t.op)
	}
	res, err := t.st.Retrieve(t.db, strategy.Query{Lo: t.op.Lo, Hi: t.op.Hi, AttrIdx: t.op.AttrIdx})
	t.res = res
	return err
}

func (t *paperTarget) verify() (uint64, error) {
	if t.op.Kind == workload.OpUpdate {
		for i, oid := range t.op.Targets {
			t.vals[oid.Rel()][oid.Key()][0] = t.op.NewRet1[i]
		}
		return 0, nil
	}
	// Every (parent, subobject) pair of the range contributes one value.
	var want, got multiset
	for p := t.op.Lo; p <= t.op.Hi; p++ {
		for _, oid := range t.db.Units[t.db.ParentUnit[p]] {
			want.add(t.child(oid)[t.op.AttrIdx-workload.FieldRet1])
		}
	}
	for _, v := range t.res.Values {
		got.add(v)
	}
	if err := got.check(want); err != nil {
		return 0, fmt.Errorf("retrieve [%d,%d] attr %d: %w", t.op.Lo, t.op.Hi, t.op.AttrIdx, err)
	}
	return got.digest(), nil
}

func (t *paperTarget) child(oid object.OID) [3]int64 { return t.vals[oid.Rel()][oid.Key()] }

// counts are the layer counters of every database this target ran ops
// on.
func (t *paperTarget) counts() counts {
	c := t.layerCounts().sub(t.start)
	b := t.base
	return counts{
		diskReads: b.diskReads + c.diskReads, diskWrites: b.diskWrites + c.diskWrites,
		pins: b.pins + c.pins, poolHits: b.poolHits + c.poolHits,
		poolMisses: b.poolMisses + c.poolMisses, poolFlushes: b.poolFlushes + c.poolFlushes,
		cacheHits: b.cacheHits + c.cacheHits, cacheMisses: b.cacheMisses + c.cacheMisses,
		cacheEvictions:     b.cacheEvictions + c.cacheEvictions,
		cacheInvalidations: b.cacheInvalidations + c.cacheInvalidations,
	}
}

// layerCounts are the current database's counters.
func (t *paperTarget) layerCounts() counts {
	ds, ps := t.db.Disk.Stats(), t.db.Pool.Stats()
	c := counts{
		diskReads: ds.Reads, diskWrites: ds.Writes,
		pins: ps.Pins, poolHits: ps.Hits, poolMisses: ps.Misses, poolFlushes: ps.Flushes,
	}
	if t.db.Cache != nil {
		cs := t.db.Cache.Stats()
		c.cacheHits, c.cacheMisses = cs.Hits, cs.Misses
		c.cacheEvictions, c.cacheInvalidations = cs.Evictions, cs.Invalidations
	}
	return c
}

// trace installs c's tracer the way workload.DB.AttachObs wires one:
// on the strategies' context, the buffer pool and the cache.
func (t *paperTarget) trace(c *spanClock) {
	t.clock = c
	ctx := t.db.Obs
	ctx.Trace = nil
	if c != nil {
		c.io = t.ioSnapshot
		ctx.Trace = c.tracer()
	}
	t.db.Obs = ctx
	t.db.Pool.SetObs(ctx)
	if t.db.Cache != nil {
		t.db.Cache.Obs = ctx
	}
}

func (t *paperTarget) ioSnapshot() obs.IO {
	ds, ps := t.db.Disk.Stats(), t.db.Pool.Stats()
	return obs.IO{Reads: ds.Reads, Writes: ds.Writes, Hits: ps.Hits, Misses: ps.Misses, Flushes: ps.Flushes}
}

func (t *paperTarget) micro() (map[string]float64, error) {
	child := t.db.Children[0]
	return layerMicro(t.db.Disk, t.db.Pool, child.Tree, t.db.ChildSchema, workload.FieldRet1)
}
