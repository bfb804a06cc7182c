// Package uop is the query layer of §3: uncertain relational operators as
// first-class boxes over the internal/stream dataflow engine, and a fluent
// builder that compiles declarative query chains into box-arrow diagrams
// (Figure 2's "queries compile to dataflow diagrams").
//
// The operator contract, per box:
//
//   - Payload: every stream.Tuple carries one *core.UTuple in its "u" field
//     (core.Wrap/core.Unwrap); grouped and alerting stages extend the
//     schema with certain columns ("group", "p") alongside the payload.
//   - Existence: probabilistic selections multiply tuple existence by the
//     predicate probability; joins multiply both inputs' existence by the
//     match probability; group sums Bernoulli-gate each contribution by
//     membership × existence and emit derived tuples with Exist = 1 (the
//     gate has absorbed the uncertainty into the result distribution).
//   - Lineage: value-only boxes (selects, filters) preserve tuple identity;
//     deriving boxes (joins, aggregates) mint fresh IDs carrying the union
//     of parent lineage, so the final operator can reconstruct
//     correlations downstream.
//
// Both executors of the engine run these boxes unchanged: the synchronous
// depth-first Graph.Push and the per-box-goroutine Graph.RunLiveOpts.
package uop

import (
	"repro/internal/core"
	"repro/internal/stream"
)

// AlertSchema is the output schema of UHaving: the derived uncertain tuple,
// its group key, and the predicate probability.
var AlertSchema = stream.NewSchema("u", "group", "p")

// USelect builds a projection/extension box: fn maps each uncertain tuple
// (returning nil drops it). Identity-preserving per the operator contract.
func USelect(name string, fn func(*core.UTuple) *core.UTuple) stream.Operator {
	return core.NewSelectOp(name, fn)
}

// UFilter builds a certain-predicate selection box (e.g. Q2's
// object_type(tag_id) = 'flammable').
func UFilter(name string, pred func(*core.UTuple) bool) stream.Operator {
	return core.NewSelectOp(name, func(u *core.UTuple) *core.UTuple {
		if pred(u) {
			return u
		}
		return nil
	})
}

// UFilterGreater builds the uncertain-predicate selection box attr >
// threshold: survivors carry their truncated conditional distribution and
// existence scaled by the predicate probability (core.SelectGreater).
func UFilterGreater(name, attr string, threshold, minProb float64) stream.Operator {
	return core.NewSelectOp(name, func(u *core.UTuple) *core.UTuple {
		return core.SelectGreater(u, attr, threshold, minProb)
	})
}

// UJoinProb builds the probabilistic co-location window join box (Q2's
// loc_equals): port 0 is the left stream, port 1 the right.
func UJoinProb(name string, rangeMS stream.Time, locAttrs []string, tol, minProb float64) stream.Operator {
	return core.NewJoinOp(name, rangeMS, locAttrs, tol, minProb)
}

// UWindowAgg builds the windowed aggregate box for any pluggable uncertain
// aggregate (sum, quantile, top-k dominating, or a custom core.UAgg): one
// output tuple per group (per rank, for top-k) per window, stamped with the
// window end, the group key in the "group" column; incremental maintenance
// for sliding windows, shardable and clusterable.
func UWindowAgg(name string, cfg core.WindowAggConfig) stream.Operator {
	return core.NewWindowAggOp(name, cfg)
}

// UHaving builds the confidence-annotated HAVING box: group tuples whose
// P(attr > threshold) clears minProb pass through extended with that
// probability in the "p" column; the rest are dropped.
func UHaving(name, attr string, threshold, minProb float64) stream.Operator {
	return stream.NewSelect(name, func(t *stream.Tuple) *stream.Tuple {
		u := core.Unwrap(t)
		p := 1 - u.Attr(attr).CDF(threshold)
		if p < minProb {
			return nil
		}
		group := ""
		if t.Schema().Index("group") >= 0 {
			group = t.Str("group")
		}
		return t.WithFields(AlertSchema, u, group, p)
	})
}
