package uop

import (
	"context"
	"fmt"

	"repro/internal/snap"
	"repro/internal/stream"
)

// Checkpointing a compiled diagram: one consistent epoch snapshot per call,
// keyed by box name. Compile adds boxes parents-first (build recurses into
// parents before appending the node), so Graph.Boxes() insertion order is a
// topological order — Checkpoint walks it and snapshots every box whose
// operator implements stream.Snapshotter, producing a blob RestoreFrom can
// apply to a freshly compiled instance of the same query.
//
// Consistency is the caller's problem by contract: Snapshot requires a
// quiescent graph. Under Push the caller simply doesn't push concurrently;
// under RunLiveOpts the Barriers hook delivers the checkpoint function to
// the executor, which drains in-flight tuples before invoking it (see
// stream.LiveOptions).

const checkpointV1 = 1

// Checkpoint serializes the diagram's durable state: the tuple-ID
// high-water mark plus one named snapshot per stateful box, in topological
// order. It must only be called while the graph is quiescent.
func (c *Compiled) Checkpoint() ([]byte, error) {
	w := &snap.Writer{}
	w.U8(checkpointV1)
	w.Uvarint(stream.TupleIDMark())
	boxes := c.Graph.Boxes()
	var count uint64
	for _, b := range boxes {
		if _, ok := b.Op.(stream.Snapshotter); ok {
			count++
		}
	}
	w.Uvarint(count)
	for i, b := range boxes {
		s, ok := b.Op.(stream.Snapshotter)
		if !ok {
			continue
		}
		blob, err := s.Snapshot()
		if err != nil {
			return nil, fmt.Errorf("uop: checkpoint %q: %w", b.Op.Name(), err)
		}
		w.Uvarint(uint64(i))
		w.String(b.Op.Name())
		w.Blob(blob)
	}
	return w.Bytes(), nil
}

// RestoreFrom rebuilds durable state from a Checkpoint blob. The receiver
// must be a freshly compiled instance of the same query (same topology,
// same box names) that has not processed any tuple. Restoring raises the
// tuple-ID floor to the checkpoint's mark, so IDs allocated after recovery
// never collide with IDs alive inside restored lineage state.
//
// Corrupt or mismatched bytes yield an error, never a panic. Boxes restore
// in order, so after an error the plan may hold some boxes' old state:
// discard it and compile a fresh one.
func (c *Compiled) RestoreFrom(data []byte) error {
	r := snap.NewReader(data)
	if v := r.U8(); v != checkpointV1 && r.Err() == nil {
		r.Fail("checkpoint version %d", v)
	}
	mark := r.Uvarint()
	n := r.Len()
	if err := r.Err(); err != nil {
		return err
	}
	boxes := c.Graph.Boxes()
	for i := 0; i < n; i++ {
		idx := int(r.Uvarint())
		name := r.String()
		blob := r.Blob()
		if err := r.Err(); err != nil {
			return err
		}
		if idx < 0 || idx >= len(boxes) {
			return fmt.Errorf("uop: checkpoint box %q at index %d, graph has %d boxes (topology drift?)",
				name, idx, len(boxes))
		}
		b := boxes[idx]
		if b.Op.Name() != name {
			return fmt.Errorf("uop: checkpoint box %d is %q, graph has %q (topology drift?)",
				idx, name, b.Op.Name())
		}
		s, ok := b.Op.(stream.Snapshotter)
		if !ok {
			return fmt.Errorf("uop: checkpoint names box %q, which does not snapshot", name)
		}
		if err := restoreBox(s, blob); err != nil {
			return fmt.Errorf("uop: restore %q: %w", name, err)
		}
	}
	if err := r.Close(); err != nil {
		return err
	}
	stream.EnsureTupleIDFloor(mark)
	return nil
}

// restoreBox applies one box's snapshot. Checkpoint bytes arrive from disk
// and, on worker promote, over the network; a decoder deep inside a box's
// restore (a window resident whose payload field or attribute a corrupt
// blob renamed) can panic, so a panic here is reported as the restore's
// error instead of taking the process down.
func restoreBox(s stream.Snapshotter, blob []byte) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("corrupt snapshot: %v", p)
		}
	}()
	return s.Restore(blob)
}

// RunLiveOpts executes the diagram on the channel executor against a live
// source of pre-wrapped carrier tuples (stream.SourceTuple as built from
// LookupSource + core.Wrap), with the checkpoint hooks of
// stream.LiveOptions (quiesce barriers, the final-checkpoint BeforeFlush).
// Results reach the OnResult sink as windows close; see
// stream.Graph.RunLiveOpts.
func (c *Compiled) RunLiveOpts(ctx context.Context, src stream.Source, opts stream.LiveOptions) error {
	return c.Graph.RunLiveOpts(ctx, src, opts)
}
