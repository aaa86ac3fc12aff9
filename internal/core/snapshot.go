// Knowledge export and import.
//
// A snapshot is one segment file (package segment) holding a single full
// delta: every history row, every dense region (1D and MD) and every cached
// probe answer, plus the heat sketch and the knowledge epoch. It is the
// codec the data dir's journal and segments already use, so an export is a
// compacted segment and a segment file from a data dir imports as-is.
// Import replays through applyDelta, the same loader crash recovery uses,
// which rebuilds the sub-linear lookup structures (1D sorted region arrays,
// MD centroid-grid buckets) through the live insert paths, so a restored
// engine's indexes match the saved engine's (asserted by
// TestSnapshotRebuildsDenseStructures).

package core

import (
	"fmt"
	"io"

	"repro/internal/segment"
)

// SaveSnapshot writes the engine's accumulated knowledge to w as one
// segment file. It is safe to call while sessions are running concurrently.
func (e *Engine) SaveSnapshot(w io.Writer) error {
	// Regions and cached probes are captured before the history watermark
	// is read: history only grows, so a tuple they reference that reached
	// history first commits by reference, and any other (DisableHistory, or
	// a probe cached just before its leader's history insert) is inlined.
	var ops []pendingOp
	for _, attr := range e.db.Schema().OrdinalIndexes() {
		for _, reg := range e.know.dense1.Export(attr) {
			ops = append(ops, pendingOp{kind: opDense1, attr: attr, iv: reg.Range, tuples: reg.Tuples, epoch: reg.Epoch})
		}
	}
	for _, ex := range e.know.exportMD() {
		for _, reg := range ex.regions {
			ops = append(ops, pendingOp{kind: opDenseMD, attrs: ex.attrs, box: reg.Box, tuples: reg.Tuples, epoch: reg.Epoch})
		}
	}
	for _, pe := range e.probes.export() {
		ops = append(ops, pendingOp{kind: opProbe, key: pe.Key, tuples: pe.Res.Tuples, epoch: pe.Epoch})
	}
	d := e.buildDelta(0, e.know.hist.Rows(), ops)
	d.Heat = e.know.heat.Export()
	d.Epoch = e.know.Epoch()
	return segment.WriteSnapshot(w, e.PersistFingerprint(), d)
}

// LoadSnapshot imports a segment file written by SaveSnapshot (or sealed
// by a data dir) into a fresh engine. The file's fingerprint must match
// this engine's upstream, or nothing loads. An engine with persistence
// attached refuses the import: its knowledge comes from its data dir.
func (e *Engine) LoadSnapshot(r io.Reader) error {
	if e.Persister() != nil {
		return fmt.Errorf("core: snapshot import into an engine with persistence attached")
	}
	deltas, err := segment.ReadSnapshot(r, e.PersistFingerprint())
	if err != nil {
		return fmt.Errorf("core: import snapshot: %w", err)
	}
	for _, d := range deltas {
		if err := e.applyDelta(d); err != nil {
			return fmt.Errorf("core: import snapshot: %w", err)
		}
	}
	return nil
}
