package cache

import (
	"bytes"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"corep/internal/buffer"
	"corep/internal/disk"
	"corep/internal/object"
)

// refCache models the cache's in-memory bookkeeping the way it was kept
// before the ranked victim index: a directory map, I-lock sets, and an
// eviction picker that collects the directory's keys, sorts them and
// draws one with the cache's seeded RNG. The model learns only whether
// a hash-file operation faulted; every eviction it decides itself.
type refCache struct {
	maxUnits int
	rng      *rand.Rand
	units    map[int64]object.Unit
	values   map[int64][]byte
	ilocks   map[object.OID]map[int64]struct{}
	stats    Stats
	victims  []int64
}

func newRefCache(maxUnits int, seed int64) *refCache {
	return &refCache{
		maxUnits: maxUnits,
		rng:      rand.New(rand.NewSource(seed)),
		units:    make(map[int64]object.Unit),
		values:   make(map[int64][]byte),
		ilocks:   make(map[object.OID]map[int64]struct{}),
	}
}

// refPick is the picker the ranked index replaced.
func (r *refCache) refPick() int64 {
	keys := make([]int64, 0, len(r.units))
	for k := range r.units {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys[r.rng.Intn(len(keys))]
}

func (r *refCache) drop(key int64) {
	for _, oid := range r.units[key] {
		if locks := r.ilocks[oid]; locks != nil {
			delete(locks, key)
			if len(locks) == 0 {
				delete(r.ilocks, oid)
			}
		}
	}
	delete(r.units, key)
	delete(r.values, key)
}

// beginInsert applies the eviction an insert of key makes before it
// touches the hash file.
func (r *refCache) beginInsert(key int64) {
	if _, ok := r.units[key]; !ok && len(r.units) >= r.maxUnits {
		v := r.refPick()
		r.victims = append(r.victims, v)
		r.stats.Evictions++
		r.drop(v)
	}
}

// endInsert applies the insert's outcome: cached on success, a miss on
// any fault (a replaced entry is gone too).
func (r *refCache) endInsert(key int64, locks []object.OID, value []byte, err error) {
	if err != nil {
		if disk.IsFault(err) {
			r.stats.Degraded++
		}
		if _, ok := r.units[key]; ok {
			r.drop(key)
		}
		return
	}
	r.stats.Inserts++
	r.values[key] = value
	if _, ok := r.units[key]; ok {
		return // a replace keeps the original lock set
	}
	r.units[key] = append(object.Unit(nil), locks...)
	for _, oid := range locks {
		if r.ilocks[oid] == nil {
			r.ilocks[oid] = make(map[int64]struct{})
		}
		r.ilocks[oid][key] = struct{}{}
	}
}

func (r *refCache) invalidate(oid object.OID) int {
	n := len(r.ilocks[oid])
	for k := range r.ilocks[oid] {
		r.drop(k)
	}
	r.stats.Invalidations += int64(n)
	return n
}

// TestEvictionMatchesSortedPicker drives the cache and the reference
// through the same seeded stream of lookups, inserts, inserts with
// foreign lock sets, invalidations, clears and fault-injected ops, and
// requires the same victims, directory, lock table and counters after
// every op.
func TestEvictionMatchesSortedPicker(t *testing.T) {
	const (
		ops      = 12000
		maxUnits = 16
		numOIDs  = 40
		seed     = 5
	)
	d := disk.NewSim()
	c, err := New(buffer.New(d, 8), maxUnits, 16, seed)
	if err != nil {
		t.Fatal(err)
	}
	ref := newRefCache(maxUnits, seed)

	rng := rand.New(rand.NewSource(42))
	faultRng := rand.New(rand.NewSource(43))
	faulting := false
	d.SetFault(func(op string, _ disk.PageID) error {
		if !faulting || op == "alloc" {
			return nil
		}
		switch x := faultRng.Float64(); {
		case x < 0.02:
			return disk.ErrPermanent
		case x < 0.05:
			return disk.ErrTransient
		}
		return nil
	})
	oids := func(n int) []object.OID {
		out := make([]object.OID, n)
		for i := range out {
			out[i] = object.NewOID(2, 1+int64(rng.Intn(numOIDs))) // repeats allowed
		}
		return out
	}
	units := make([]object.Unit, 60)
	for i := range units {
		units[i] = oids(1 + rng.Intn(5))
	}
	value := func() []byte {
		v := make([]byte, 1+rng.Intn(3*maxSegment))
		rng.Read(v)
		return v
	}

	var victims []int64
	for op := 0; op < ops; op++ {
		faulting = rng.Float64() < 0.15
		u := units[rng.Intn(len(units))]
		key := u.HashKey()
		before := slices.Clone(c.order)
		evictionsBefore := c.Stats().Evictions
		switch x := rng.Float64(); {
		case x < 0.35:
			v, ok, err := c.Lookup(u)
			if err != nil {
				t.Fatalf("op %d: lookup: %v", op, err)
			}
			want, cached := ref.values[key]
			switch {
			case !cached && ok:
				t.Fatalf("op %d: hit on a unit the reference does not hold", op)
			case ok:
				ref.stats.Hits++
				if !bytes.Equal(v, want) {
					t.Fatalf("op %d: hit returned %d bytes, want the %d cached", op, len(v), len(want))
				}
			case cached: // a faulted segment degraded the hit to a miss
				ref.stats.Misses++
				ref.stats.Degraded++
				ref.drop(key)
			default:
				ref.stats.Misses++
			}
		case x < 0.70:
			val := value()
			ref.beginInsert(key)
			err := c.Insert(u, val)
			ref.endInsert(key, u, val, err)
		case x < 0.85:
			val, locks := value(), oids(1+rng.Intn(6))
			ref.beginInsert(key)
			err := c.InsertWithLocks(u, locks, val)
			ref.endInsert(key, locks, val, err)
		case x < 0.995:
			oid := object.NewOID(2, 1+int64(rng.Intn(numOIDs)))
			n, err := c.Invalidate(oid)
			if err != nil {
				t.Fatalf("op %d: invalidate: %v", op, err)
			}
			if want := ref.invalidate(oid); n != want {
				t.Fatalf("op %d: invalidated %d units, reference %d", op, n, want)
			}
		default:
			if err := c.Clear(); err != nil {
				t.Fatalf("op %d: clear: %v", op, err)
			}
			for k := range ref.units {
				ref.drop(k)
			}
		}
		faulting = false

		if c.Stats().Evictions > evictionsBefore {
			for _, k := range before {
				if _, ok := c.units[k]; !ok {
					victims = append(victims, k)
				}
			}
		}
		if len(victims) != len(ref.victims) || (len(victims) > 0 && victims[len(victims)-1] != ref.victims[len(ref.victims)-1]) {
			t.Fatalf("op %d: victims %v, reference %v", op, victims[max(0, len(victims)-3):], ref.victims[max(0, len(ref.victims)-3):])
		}
		compareDirectory(t, op, c, ref)
		got, want := c.Stats(), ref.stats
		got.Orphans, want.Orphans = 0, 0 // orphans depend on which delete faulted
		if got != want {
			t.Fatalf("op %d: stats %+v, reference %+v", op, got, want)
		}
		if op%500 == 0 {
			if err := c.CheckInvariants(); err != nil {
				t.Fatalf("op %d: %v", op, err)
			}
		}
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.Evictions < 1000 || st.Degraded == 0 || st.Invalidations == 0 {
		t.Fatalf("stream too tame to compare pickers: %+v", st)
	}
	t.Logf("%d victims matched; %s degraded=%d orphans=%d", len(victims), st, st.Degraded, st.Orphans)
}

// compareDirectory requires the cache's ranked index, directory and
// I-lock lists to hold exactly the reference's units and lock sets.
func compareDirectory(t *testing.T, op int, c *Cache, ref *refCache) {
	t.Helper()
	keys := make([]int64, 0, len(ref.units))
	for k := range ref.units {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	if !slices.Equal(c.order, keys) {
		t.Fatalf("op %d: cached keys %v, reference %v", op, c.order, keys)
	}
	if len(c.ilocks) != len(ref.ilocks) {
		t.Fatalf("op %d: %d locked OIDs, reference %d", op, len(c.ilocks), len(ref.ilocks))
	}
	for oid, locks := range c.ilocks {
		want := ref.ilocks[oid]
		if len(locks) != len(want) {
			t.Fatalf("op %d: %v locks %v, reference %v", op, oid, locks, want)
		}
		for _, k := range locks {
			if _, ok := want[k]; !ok {
				t.Fatalf("op %d: %v locks unit %d, reference does not", op, oid, k)
			}
		}
	}
}
