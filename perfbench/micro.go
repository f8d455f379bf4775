package main

import (
	"fmt"
	"time"

	"corep/internal/btree"
	"corep/internal/buffer"
	"corep/internal/disk"
	"corep/internal/pql"
	"corep/internal/tuple"
)

// sink keeps timed calls' results live so the compiler cannot drop them.
var sink int64

// timeNs runs fn n times, three rounds, and returns the median round's
// ns per call.
func timeNs(n int, fn func(i int) error) (float64, error) {
	rounds := make([]float64, 3)
	for r := range rounds {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return 0, err
			}
		}
		rounds[r] = float64(time.Since(t0).Nanoseconds()) / float64(n)
	}
	return median(rounds), nil
}

// missPoolPages sizes the fresh pool the miss timing pins through: the
// paper's buffer size.
const missPoolPages = 100

// hotKeys is the key window of the B-tree timing: a few leaves, so every
// probe hits the pool and the timing is the descent and the copy.
const hotKeys = 200

// layerMicro times the layers' public entry points on one database: a
// pin and unpin of a resident page on pool and of a non-resident page
// on d, a B-tree point lookup in tree, and decoding field of and
// encoding one of tree's records.
func layerMicro(d *disk.Sim, pool *buffer.Pool, tree *btree.Tree, schema *tuple.Schema, field int) (map[string]float64, error) {
	m := map[string]float64{}
	var err error
	root := tree.Root()
	if m["buffer.pin_unpin_hit_ns"], err = timeNs(200000, func(int) error {
		buf, err := pool.Pin(root)
		if err != nil {
			return err
		}
		sink += int64(buf[0])
		pool.Unpin(root, false)
		return nil
	}); err != nil {
		return nil, fmt.Errorf("pin hit: %w", err)
	}

	// Cycling through more pages than the pool holds misses every time
	// under LRU. The fresh pool only reads, so the database is unchanged.
	pages := d.NumPages()
	if pages <= missPoolPages {
		return nil, fmt.Errorf("database has %d pages, too few to miss a %d-page pool", pages, missPoolPages)
	}
	cold := buffer.New(d, missPoolPages)
	if m["buffer.pin_unpin_miss_ns"], err = timeNs(20000, func(i int) error {
		id := disk.PageID(1 + i%pages)
		buf, err := cold.Pin(id)
		if err != nil {
			return err
		}
		sink += int64(buf[0])
		cold.Unpin(id, false)
		return nil
	}); err != nil {
		return nil, fmt.Errorf("pin miss: %w", err)
	}

	if m["btree.get_ns"], err = timeNs(100000, func(i int) error {
		rec, err := tree.Get(int64(i * 37 % hotKeys))
		sink += int64(len(rec))
		return err
	}); err != nil {
		return nil, fmt.Errorf("btree get: %w", err)
	}

	rec, err := tree.Get(0)
	if err != nil {
		return nil, err
	}
	if m["tuple.decode_field_ns"], err = timeNs(1000000, func(int) error {
		v, err := tuple.DecodeField(schema, rec, field)
		sink += v.Int
		return err
	}); err != nil {
		return nil, fmt.Errorf("decode field: %w", err)
	}
	row, err := tuple.Decode(schema, rec)
	if err != nil {
		return nil, err
	}
	buf := make([]byte, 0, len(rec))
	if m["tuple.encode_ns"], err = timeNs(300000, func(int) error {
		out, err := tuple.Encode(buf[:0], schema, row)
		sink += int64(len(out))
		return err
	}); err != nil {
		return nil, fmt.Errorf("encode: %w", err)
	}

	return m, nil
}

// parseMicroUs times pql.Parse over srcs, in microseconds per query.
func parseMicroUs(srcs []string) (float64, error) {
	ns, err := timeNs(20000, func(i int) error {
		q, err := pql.Parse(srcs[i%len(srcs)])
		if q != nil {
			sink += int64(len(q.Targets))
		}
		return err
	})
	if err != nil {
		return 0, fmt.Errorf("pql parse: %w", err)
	}
	return ns / 1e3, nil
}
