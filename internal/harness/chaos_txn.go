package harness

import (
	"fmt"

	"corep/internal/strategy"
	"corep/internal/txn"
	"corep/internal/workload"
)

// RunTxnChaos is the versioned-store atomicity hammer: N updater
// goroutines each own one parent's unit and repeatedly commit the whole
// batch with a round-stamped sentinel value, while N reader goroutines
// pin snapshots and audit what they see. The contract under audit is
// commit atomicity — a snapshot sees a batch entirely at one round or
// not at all. Partial visibility is a torn-version violation; a member
// missing its final round after the writers join is a lost update. The
// run finishes by draining the store back into the base layout and
// comparing snapshot-free sweeps through the strategy's own retrieve
// against a control build holding every batch's final round, so a
// broken drain or a stale cache entry surfaces as a violation too. Harness-level failures (build errors) are returned as
// the error; contract breaches come back as violations.
func RunTxnChaos(cfg ChaosConfig, kind strategy.Kind) ([]Violation, error) {
	rec := &recorder{strategy: kind.String(), seed: -1}
	dbCfg := provisionFor(kind, cfg.DB.WithDefaults())
	h, err := newHammer("txn chaos", cfg, dbCfg, kind, rec, 2, nil)
	if err != nil {
		return nil, err
	}
	defer h.db.Close()
	db, st, batches, rounds := h.db, h.st, h.batches, h.rounds

	// Each audit checks every batch's versions in its snapshot;
	// every fourth pass also runs the full snapshot read path (overlay,
	// cache watermarks) under the same epoch, not just the store.
	h.run(func(g, i int, snap *txn.Snapshot) {
		for u, batch := range batches {
			vals := make([]int64, len(batch))
			for j, oid := range batch {
				vals[j], _ = snap.Read(oid) // no visible version reads as 0, a build value
			}
			h.auditBatch(u, vals, snap)
		}
		if i%4 == g%4 {
			h.auditRetrieve(snap)
		}
	}, nil)

	// Post-join: the final snapshot must hold every batch at its last
	// round — anything else means a commit was lost.
	snap := db.Versions.Begin()
	for u, batch := range batches {
		want := sentinel(u, rounds)
		for _, oid := range batch {
			if v, ok := snap.Read(oid); !ok || v != want {
				rec.add("lost-update", fmt.Sprintf(
					"updater %d member %v: got %d,%v want %d", u, oid, v, ok, want))
				break
			}
		}
	}
	snap.Release()

	// Drain into the base layout through the strategy's own update path;
	// then the base (and any cache in front of it) must serve the final
	// round to snapshot-free reads, as the control does. Faults are
	// lifted first — drain models post-quiesce reconciliation, and the
	// final-state audit must be able to read every page.
	db.Disk.SetFault(nil)
	drained, err := db.DrainVersions(func(op workload.Op) error { return st.Update(db, op) })
	if err != nil {
		rec.add("unattributed-error", "drain: "+err.Error())
	}
	if err == nil && drained != h.members() {
		rec.add("lost-update", fmt.Sprintf("drain applied %d objects, want %d", drained, h.members()))
	}
	if err := h.compareToControl(dbCfg, kind); err != nil {
		return rec.violations(), err
	}
	h.finish()
	return rec.violations(), nil
}
