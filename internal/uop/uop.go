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
// The builder's stages are core's boxes (core.NewSelectOp, core.NewJoinOp,
// core.NewWindowAggOp) plus the HAVING box below. Both executors of the
// engine run them unchanged: the synchronous depth-first Graph.Push and the
// per-box-goroutine Graph.RunLiveOpts; Compiled.Run drives either over a
// finite trace.
package uop

import (
	"repro/internal/core"
	"repro/internal/stream"
)

// alertSchema is the output schema of having: the derived uncertain tuple,
// its group key, and the predicate probability.
var alertSchema = stream.NewSchema("u", "group", "p")

// having builds the confidence-annotated HAVING box: group tuples whose
// P(attr > threshold) clears minProb pass through extended with that
// probability in the "p" column; the rest are dropped.
func having(name, attr string, threshold, minProb float64) stream.Operator {
	return stream.NewSelect(name, func(t *stream.Tuple) *stream.Tuple {
		u := core.Unwrap(t)
		p := 1 - u.Val(attr).CDF(threshold)
		if !(p >= minProb) { // a NaN probability clears no floor
			return nil
		}
		group := ""
		if t.Schema().Index("group") >= 0 {
			group = t.Str("group")
		}
		return t.WithFields(alertSchema, u, group, p)
	})
}
