package main

import (
	"fmt"
	"math/rand"
	"slices"
	"time"

	"corep"
)

// objapi-mixed sizes: 100,000 member rows, 20,000 groups of five members
// each, in a pool and a cache large enough that every page and every
// unit stays resident after warm-up. The live heap, ~50 MB, is larger
// than the host's last-level cache on purpose: a working set that just
// fits there runs up to several times slower whenever other tenants of
// a shared host fill that cache, while one that lives in memory runs at
// a steady speed.
const (
	numMembers   = 100000
	numGroups    = 20000
	groupSize    = 5
	maxGroupSpan = 50    // a retrieve covers 1..50 consecutive groups
	objPoolPages = 20480 // 40 MB: the whole database plus the cache's hash file
	objCacheSize = 16384 // units: every OID unit and stored query fits
)

// Group representations, by group key modulo 3: the paper's three
// primary representations of a children attribute (§2).
const (
	repOIDs = iota
	repProc
	repValue
)

// Op kinds, drawn 40% / 40% / 20%: pql path queries, cached path
// retrieves, member updates.
const (
	opQuery = iota
	opPathCached
	opUpdate
)

func objapiSpec() spec {
	return spec{
		name:     "objapi-mixed",
		warmup:   sweepOps + 300,
		countOps: 10000,
		partOps:  50000,
		build: func(seed int64) (target, time.Duration, error) {
			return newObjTarget(seed)
		},
	}
}

// objTarget drives corep.Database and models members' scores and each
// group's children.
type objTarget struct {
	db      *corep.Database
	members *corep.Relation
	rng     *rand.Rand

	names  []string // member names, never updated
	scores []int64  // current member scores
	// groups[g] lists the member keys behind group g's children;
	// value-based groups also keep in inline[g] the scores copied into
	// the group row at build time.
	groups [][]int64
	inline [][]int64

	swept int // sweep ops prepared so far, up to sweepOps

	// The prepared op and its result.
	kind   int
	lo, hi int64
	src    string
	row    corep.Row
	rows   []corep.Row
	vals   []corep.Value

	clock *spanClock
}

func procQuery(lo int64) string {
	return fmt.Sprintf("retrieve (member.mid, member.name, member.score) where member.mid >= %d and member.mid <= %d",
		lo, lo+groupSize-1)
}

func pathQuery(lo, hi int64) string {
	return fmt.Sprintf("retrieve (group.members.score) where group.gid >= %d and group.gid <= %d", lo, hi)
}

// newObjTarget builds the object database for seed. The returned
// duration covers the program's calls only, not drawing the inputs.
func newObjTarget(seed int64) (*objTarget, time.Duration, error) {
	rng := rand.New(rand.NewSource(seed))
	t := &objTarget{
		rng:    rand.New(rand.NewSource(seed ^ 0x5eed)),
		names:  make([]string, numMembers),
		scores: make([]int64, numMembers),
		groups: make([][]int64, numGroups),
		inline: make([][]int64, numGroups),
	}
	for k := range t.scores {
		t.names[k] = fmt.Sprintf("m%06d", k)
		t.scores[k] = rng.Int63n(1_000_000)
	}
	for g := range t.groups {
		keys := make([]int64, groupSize)
		if g%3 == repProc {
			lo := rng.Int63n(numMembers - groupSize + 1)
			for i := range keys {
				keys[i] = lo + int64(i)
			}
		} else {
			// groupSize distinct members, drawn at random.
			for i := 0; i < groupSize; {
				if k := rng.Int63n(numMembers); !slices.Contains(keys[:i], k) {
					keys[i] = k
					i++
				}
			}
		}
		t.groups[g] = keys
		if g%3 == repValue {
			for _, k := range keys {
				t.inline[g] = append(t.inline[g], t.scores[k])
			}
		}
	}

	t0 := time.Now()
	db := corep.NewDatabase(objPoolPages)
	members, err := db.CreateRelation("member",
		corep.IntField("mid"), corep.StrField("name"), corep.IntField("score"))
	if err != nil {
		return nil, 0, err
	}
	oids := make([]corep.OID, numMembers)
	for k := range t.scores {
		if oids[k], err = members.Insert(t.memberRow(int64(k))); err != nil {
			return nil, 0, err
		}
	}
	group, err := db.CreateRelation("group",
		corep.IntField("gid"), corep.StrField("name"), corep.ChildrenField("members"))
	if err != nil {
		return nil, 0, err
	}
	for g, keys := range t.groups {
		var kids corep.Children
		switch g % 3 {
		case repOIDs:
			ids := make([]corep.OID, len(keys))
			for i, k := range keys {
				ids[i] = oids[k]
			}
			kids = corep.OIDChildren(ids...)
		case repProc:
			kids = corep.ProcChildren(procQuery(keys[0]))
		case repValue:
			rows := make([]corep.Row, len(keys))
			for i, k := range keys {
				rows[i] = t.memberRow(k)
			}
			kids = corep.ValueChildren(members, rows...)
		}
		row := corep.Row{corep.Int(int64(g)), corep.Str(fmt.Sprintf("g%05d", g)), corep.Value{}}
		if _, err := group.InsertWith(row, map[string]corep.Children{"members": kids}); err != nil {
			return nil, 0, err
		}
	}
	if err := db.EnableCache(objCacheSize); err != nil {
		return nil, 0, err
	}
	if err := db.ResetCold(); err != nil {
		return nil, 0, err
	}
	d := time.Since(t0)
	t.db, t.members = db, members
	return t, d, nil
}

func (t *objTarget) memberRow(k int64) corep.Row {
	return corep.Row{corep.Int(k), corep.Str(t.names[k]), corep.Int(t.scores[k])}
}

// sweepOps are the first ops every measuring process runs: they read
// every group once through each path, maxGroupSpan groups at a time, so
// the warm-up makes every page and every unit resident however large
// the database is.
const sweepOps = 2 * numGroups / maxGroupSpan

func (t *objTarget) next() (bool, uint64) {
	t.rows, t.vals = nil, nil
	if t.swept < sweepOps {
		t.kind = [...]int{opQuery, opPathCached}[t.swept%2]
		t.lo = int64(t.swept/2) * maxGroupSpan
		t.hi = t.lo + maxGroupSpan - 1
		t.swept++
	} else {
		t.draw()
	}
	if t.kind == opUpdate {
		return true, fold(uint64(t.row[0].Int), uint64(t.row[2].Int))
	}
	t.src = pathQuery(t.lo, t.hi)
	return false, fold(fold(uint64(t.kind), uint64(t.lo)), uint64(t.hi))
}

// draw draws the next op of the random sequence: its kind, and the
// member row of an update or the group range of a retrieve.
func (t *objTarget) draw() {
	switch r := t.rng.Intn(10); {
	case r < 4:
		t.kind = opQuery
	case r < 8:
		t.kind = opPathCached
	default:
		t.kind = opUpdate
		k := t.rng.Int63n(numMembers)
		t.row = corep.Row{corep.Int(k), corep.Str(t.names[k]), corep.Int(t.rng.Int63n(1_000_000))}
		return
	}
	n := 1 + t.rng.Int63n(maxGroupSpan)
	t.lo = t.rng.Int63n(numGroups - n + 1)
	t.hi = t.lo + n - 1
}

func (t *objTarget) skip(n int) {
	for range n {
		t.draw()
	}
}

// callNames are the spans the benchmark records around each facade call.
var callNames = [...]string{opQuery: "corep.query", opPathCached: "corep.path_cached", opUpdate: "corep.update"}

func (t *objTarget) exec() error {
	var t0 time.Time
	if t.clock != nil {
		t0 = time.Now()
	}
	var err error
	switch t.kind {
	case opQuery:
		var qr *corep.QueryResult
		if qr, err = t.db.Query(t.src); err == nil {
			t.rows = qr.Rows
		}
	case opPathCached:
		t.vals, err = t.db.RetrievePathCached("group", "members", "score", t.lo, t.hi)
	case opUpdate:
		err = t.members.Update(t.row[0].Int, t.row)
	}
	if t.clock != nil {
		t.clock.add(callNames[t.kind], time.Since(t0).Nanoseconds())
	}
	return err
}

func (t *objTarget) verify() (uint64, error) {
	if t.kind == opUpdate {
		t.scores[t.row[0].Int] = t.row[2].Int
		return 0, nil
	}
	var want, got multiset
	for g := t.lo; g <= t.hi; g++ {
		if g%3 == repValue {
			for _, s := range t.inline[g] {
				want.add(s)
			}
			continue
		}
		for _, k := range t.groups[g] {
			want.add(t.scores[k])
		}
	}
	for _, r := range t.rows {
		got.add(r[0].Int)
	}
	for _, v := range t.vals {
		got.add(v.Int)
	}
	if err := got.check(want); err != nil {
		return 0, fmt.Errorf("%s [%d,%d]: %w", callNames[t.kind], t.lo, t.hi, err)
	}
	return got.digest(), nil
}

func (t *objTarget) counts() counts {
	s := t.db.Snapshot()
	cs := t.db.CacheStats()
	return counts{
		diskReads: s.Disk.Reads, diskWrites: s.Disk.Writes,
		pins: s.Buffer.Pins, poolHits: s.Buffer.Hits, poolMisses: s.Buffer.Misses, poolFlushes: s.Buffer.Flushes,
		cacheHits: cs.Hits, cacheMisses: cs.Misses,
		cacheEvictions: cs.Evictions, cacheInvalidations: cs.Invalidations,
	}
}

func (t *objTarget) trace(c *spanClock) { t.clock = c }

// micro times pql.Parse on the workload's query strings: path queries
// and stored queries. The facade does not expose its pool, trees or
// tuples, so the other layer timings are taken on the paper workloads
// and read 0 here.
func (t *objTarget) micro() (map[string]float64, error) {
	var srcs []string
	for g := 0; g < 64; g++ {
		srcs = append(srcs, pathQuery(int64(g), int64(g+g%maxGroupSpan)))
		if g%3 == repProc {
			srcs = append(srcs, procQuery(t.groups[g][0]))
		}
	}
	us, err := parseMicroUs(srcs)
	if err != nil {
		return nil, err
	}
	return map[string]float64{"pql.parse_us": us}, nil
}
