package core

import (
	"repro/internal/stream"
)

// The adapters below run uncertain tuples through the box-arrow engine of
// internal/stream (Figure 2's architecture): each stream.Tuple carries one
// *UTuple in a single field, so the generic engine (windows, joins, graph
// wiring, channel execution) moves uncertain tuples without knowing about
// distributions, and the uncertainty-aware logic lives in these operator
// shims.

// utupleSchema is the single-field schema carrying uncertain tuples.
var utupleSchema = stream.NewSchema("u")

// Wrap lifts an uncertain tuple into a stream tuple.
func Wrap(u *UTuple) *stream.Tuple {
	return stream.NewTuple1(utupleSchema, u.TS, u.ID, u)
}

// Unwrap extracts the uncertain tuple (panics on foreign tuples — wiring
// errors should fail loudly during pipeline construction, not corrupt
// results silently).
//
// A carrier built by Wrap (or restored from a checkpoint, whose schema is
// the registered canonical one) holds the payload in its only field, read
// by position; other schemas that carry a "u" column — grouped and
// partial carriers — go through the name lookup.
func Unwrap(t *stream.Tuple) *UTuple {
	var v stream.Value
	if t.Schema() == utupleSchema {
		v = t.Fields[0]
	} else {
		v = t.Get("u")
	}
	u, ok := v.(*UTuple)
	if !ok {
		panic("core: stream tuple does not carry a UTuple")
	}
	return u
}

// NewSelectOp builds a stream operator applying an uncertain selection
// (e.g. a closure over SelectGreater) to each tuple; nil results are
// dropped. Extra certain columns riding alongside the payload (a group
// key, a having probability) pass through untouched, so selections
// compose after grouped stages.
func NewSelectOp(name string, sel func(*UTuple) *UTuple) stream.Operator {
	return stream.NewSelect(name, func(t *stream.Tuple) *stream.Tuple {
		in := Unwrap(t)
		out := sel(in)
		if out == nil {
			return nil
		}
		if out == in {
			return t // pure filter: the carrier is already right
		}
		if s := t.Schema(); s != nil && len(s.Names) > 1 {
			fields := append([]stream.Value(nil), t.Fields...)
			fields[s.MustIndex("u")] = out
			nt := stream.NewTuple(s, out.TS, fields...)
			nt.ID = out.ID
			return nt
		}
		return Wrap(out)
	})
}

// dedupLatestTuples keeps, per certain key, only the latest tuple of a
// window of carrier tuples (later arrival wins timestamp ties), preserving
// arrival order of the survivors. Tuples missing the key are never
// deduplicated: each one survives (and, in the sharded plan, routes
// round-robin rather than panicking the partitioner). The sharded and
// unsharded plans share it, so their dedup cannot drift apart; within a
// shard the result equals the unsharded dedup restricted to the shard's
// keys, because the partitioner routes all of a key's tuples to one shard.
func dedupLatestTuples(window []*stream.Tuple, key string) []*stream.Tuple {
	latest := make(map[int64]*stream.Tuple, len(window))
	for _, t := range window {
		u := Unwrap(t)
		if !u.HasKey(key) {
			continue
		}
		k := u.Key(key)
		if cur, ok := latest[k]; !ok || u.TS >= Unwrap(cur).TS {
			latest[k] = t
		}
	}
	out := make([]*stream.Tuple, 0, len(latest))
	for _, t := range window {
		u := Unwrap(t)
		if !u.HasKey(key) || latest[u.Key(key)] == t {
			out = append(out, t)
		}
	}
	return out
}

// groupedSchema extends the carrier schema with the group key.
var groupedSchema = stream.NewSchema("u", "group")

// GroupOf reads the group key from a windowed-aggregate output tuple.
func GroupOf(t *stream.Tuple) string { return t.Str("group") }

// NewJoinOp builds a probabilistic co-location join box over the stream
// engine's symmetric window join: tuples from port 0 (left) and port 1
// (right) match when their JoinProb clears minProb.
func NewJoinOp(name string, rangeMS stream.Time, locAttrs []string, tol, minProb float64) stream.Operator {
	return stream.NewJoin(name, rangeMS,
		// The window predicate re-checks the time distance explicitly: under
		// channel execution the two input ports drain from independent
		// upstream goroutines, so a slow side can present pairs the eviction
		// horizon alone would have excluded. Match probability is decided in
		// the emitter.
		func(l, r *stream.Tuple) bool {
			dt := l.TS - r.TS
			if dt < 0 {
				dt = -dt
			}
			return dt <= rangeMS
		},
		func(l, r *stream.Tuple) *stream.Tuple {
			out := JoinProb(Unwrap(l), Unwrap(r), locAttrs, tol, minProb)
			if out == nil {
				return nil
			}
			return Wrap(out)
		})
}
