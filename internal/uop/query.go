package uop

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/stream"
)

// Query is a fluent, side-effect-free description of a continuous query
// over uncertain streams. Each clause returns a new value, so prefixes can
// be shared and composed; Compile turns the finished chain into a
// stream.Graph box-arrow diagram: Run evaluates a finite trace under either
// executor, Push and Graph.RunLiveOpts feed a live source.
//
//	q := uop.From("locations").
//		Window(5 * stream.Second).
//		DedupLatest("tag").
//		GroupBy(areaFn).
//		Sum("weight", core.CFInvert, core.AggOptions{}).
//		Having(uop.Greater(200, 0.5))
//	c := q.Compile()
type Query struct {
	source      string
	parent      *Query
	left, right *Query
	makeOp      func() stream.Operator

	// Pending clauses accumulated by Window/DedupLatest/GroupBy/rescan
	// and consumed by the next aggregate stage.
	win       *stream.WindowSpec
	dedup     string
	member    core.Membership
	recompute bool
	// shards, when >= 1, is inherited by every downstream stage: Compile
	// rewrites each eligible box into that many shard instances behind a
	// Partition/Merge pair (see the build cases for eligibility).
	shards int
	// aggAttr is the attribute of the most recent aggregate, for Having.
	// It is set on the aggregate's node and every node downstream of it.
	aggAttr string
}

// From starts a query over the named source stream. Queries built from the
// same source name share one source box when compiled together (a join's
// two branches may both read "locations").
func From(name string) *Query {
	if name == "" {
		panic("uop: source name must be non-empty")
	}
	return &Query{source: name}
}

// with returns a copy with a pending-clause mutation applied.
func (q *Query) with(mut func(*Query)) *Query {
	c := *q
	mut(&c)
	return &c
}

// stage returns a new downstream node wrapping an operator factory.
// Pending clauses ride along until an aggregate consumes them, so
// Window(w).Where(f).Sum(...) windows the filtered stream rather than
// silently dropping the Window.
func (q *Query) stage(makeOp func() stream.Operator) *Query {
	return &Query{
		parent: q, makeOp: makeOp, aggAttr: q.aggAttr,
		win: q.win, dedup: q.dedup, member: q.member,
		recompute: q.recompute, shards: q.shards,
	}
}

// Shards makes this and every downstream stage compile shard-parallel: each
// eligible box becomes n shard instances behind a stream.Partition box
// (hash of the operator's dedup/group key; round-robin for stateless
// stages; round-robin + broadcast for the probabilistic join's two ports)
// and a merge box that reunifies shard outputs deterministically, so alerts
// stay byte-identical to the unsharded plan. A stateless stage is sharded
// only while no aggregate or join lies between it and its source; one
// downstream of such a stage runs as one box after its merge, as on the
// cluster head. n <= 0 disables the rewrite; n == 1 still builds the
// sharded topology (useful for exercising the protocol).
func (q *Query) Shards(n int) *Query {
	return q.with(func(c *Query) { c.shards = n })
}

// Where appends a certain-predicate selection stage.
func (q *Query) Where(name string, pred func(*core.UTuple) bool) *Query {
	return q.stage(func() stream.Operator {
		return core.NewSelectOp(name, func(u *core.UTuple) *core.UTuple {
			if pred(u) {
				return u
			}
			return nil
		})
	})
}

// WhereGreater appends an uncertain-predicate selection stage
// (attr > threshold, survivors keep truncated conditionals).
func (q *Query) WhereGreater(attr string, threshold, minProb float64) *Query {
	return q.stage(func() stream.Operator {
		return core.NewSelectOp(fmt.Sprintf("σ(%s>%g)", attr, threshold), func(u *core.UTuple) *core.UTuple {
			return core.SelectGreater(u, attr, threshold, minProb)
		})
	})
}

// Window sets a pending tumbling time window of the given duration,
// consumed by the next aggregate clause.
func (q *Query) Window(d stream.Time) *Query {
	return q.WindowSpec(stream.WindowSpec{Duration: d})
}

// WindowSpec sets an arbitrary pending window policy (count, sliding).
func (q *Query) WindowSpec(spec stream.WindowSpec) *Query {
	spec.Validate()
	return q.with(func(c *Query) { c.win = &spec })
}

// DedupLatest keeps, per window and per certain key, only the latest tuple
// — one contribution per object per window.
func (q *Query) DedupLatest(key string) *Query {
	return q.with(func(c *Query) { c.dedup = key })
}

// GroupBy sets the pending probabilistic group assignment for the next
// aggregate clause.
func (q *Query) GroupBy(member core.Membership) *Query {
	return q.with(func(c *Query) { c.member = member })
}

// rescan pins the next aggregate to the per-window rescan path even when
// the window shape admits incremental maintenance: the reference semantics
// the tests hold the incremental and sharded plans against.
func (q *Query) rescan() *Query {
	return q.with(func(c *Query) { c.recompute = true })
}

// Sum materializes the pending Window/DedupLatest/GroupBy clauses into a
// windowed gated SUM over the named uncertain attribute: per window (and
// group, if any) one output tuple carrying the sum's full distribution.
func (q *Query) Sum(attr string, strat core.Strategy, opts core.AggOptions) *Query {
	return q.windowAgg("Σ", attr, attr,
		func() core.UAgg { return core.NewSumAgg(attr, strat, opts) })
}

// windowAgg materializes the pending clauses into a windowed aggregate stage
// on the pluggable spine: verb and label render the box name, aggAttr is the
// output attribute Having reads. Every combination of GroupBy/DedupLatest is
// legal: without a GroupBy the aggregate runs over the implicit single
// group "".
func (q *Query) windowAgg(verb, label, aggAttr string, agg func() core.UAgg) *Query {
	if q.win == nil {
		panic("uop: " + verb + " requires a preceding Window")
	}
	win, dedup, member, recompute := *q.win, q.dedup, q.member, q.recompute
	name := fmt.Sprintf("γ%s(%s)", verb, label)
	s := q.stage(func() stream.Operator {
		return core.NewWindowAggOp(name, core.WindowAggConfig{
			Window: win, DedupKey: dedup, Member: member,
			Agg: agg(), Recompute: recompute,
		})
	})
	s.aggAttr = aggAttr
	s.win, s.dedup, s.member = nil, "", nil // clauses consumed
	s.recompute = false
	return s
}

// Quantile materializes the pending Window/DedupLatest/GroupBy clauses into
// a streaming q-quantile aggregate over the named uncertain attribute: per
// window (and group, if any) one output tuple whose attribute is the result
// distribution of the window's level-quantile — exact order-statistic
// tabulation for small windows, sketch estimator beyond
// opts.MaxExact contributions. Having composes on top exactly as for Sum.
func (q *Query) Quantile(attr string, level float64, opts core.QuantileOptions) *Query {
	return q.windowAgg(fmt.Sprintf("q%g", level), attr, attr,
		func() core.UAgg { return core.NewQuantileAgg(attr, level, opts) })
}

// TopKDominating materializes the pending clauses into a probabilistic
// top-k dominating aggregate over the named uncertain dimensions: per window
// (and group, if any) the k objects with the highest expected dominated
// count, one output tuple per rank carrying the certain keys "rank" (and
// opts.Label, when configured) plus the full dominated-count distribution
// as the "domcount" attribute.
func (q *Query) TopKDominating(attrs []string, k int, opts core.TopKOptions) *Query {
	return q.windowAgg(fmt.Sprintf("top%d", k), strings.Join(attrs, ","), "domcount",
		func() core.UAgg { return core.NewTopKDominatingAgg(attrs, k, opts) })
}

// HavingClause is a confidence-annotated aggregate predicate.
type HavingClause struct {
	// Threshold is the aggregate bound; MinProb the confidence floor for
	// reporting.
	Threshold, MinProb float64
}

// Greater builds the clause "aggregate > threshold with P >= minProb".
func Greater(threshold, minProb float64) HavingClause {
	return HavingClause{Threshold: threshold, MinProb: minProb}
}

// Having appends the confidence-annotated HAVING stage over the most
// recent aggregate.
func (q *Query) Having(h HavingClause) *Query {
	attr := q.aggAttr
	if attr == "" {
		panic("uop: Having requires a preceding aggregate")
	}
	return q.stage(func() stream.Operator {
		return having(fmt.Sprintf("having(P(%s>%g)≥%g)", attr, h.Threshold, h.MinProb),
			attr, h.Threshold, h.MinProb)
	})
}

// JoinProb joins this query (left, port 0) with another (right, port 1) on
// probabilistic co-location of the named attributes within ±rangeMS.
func (q *Query) JoinProb(r *Query, rangeMS stream.Time, locAttrs []string, tol, minProb float64) *Query {
	if q.win != nil || q.member != nil || q.dedup != "" || r.win != nil || r.member != nil || r.dedup != "" {
		panic("uop: Window/GroupBy/DedupLatest must be consumed by an aggregate before a join")
	}
	attrs := append([]string(nil), locAttrs...)
	return &Query{
		left: q, right: r, shards: q.shards,
		makeOp: func() stream.Operator {
			return core.NewJoinOp(fmt.Sprintf("⋈(loc_equals±%g)", tol), rangeMS, attrs, tol, minProb)
		},
	}
}

// Compiled is a query compiled to a box-arrow diagram, with a Collect sink
// attached after the final stage. A Compiled carries window/join state and
// is therefore single-use: compile again for a fresh run.
type Compiled struct {
	// Graph is the underlying diagram (for Describe, stats, custom wiring).
	Graph   *stream.Graph
	sink    *stream.Collect
	sources map[string]*stream.Box
	// entry maps each source to its injection point. Single-consumer
	// sources inject directly into the consumer box: the named source box
	// only earns its dispatch cost as a fan-out point (a join reading one
	// stream on both ports), and queries push every tuple through it.
	entry map[string]srcEntry
}

type srcEntry struct {
	box  *stream.Box
	port int
}

// Compile builds the dataflow graph for the query chain.
func (q *Query) Compile() *Compiled {
	if q.win != nil || q.member != nil || q.dedup != "" {
		panic("uop: Window/GroupBy/DedupLatest without a consuming aggregate")
	}
	g := stream.NewGraph()
	c := &Compiled{Graph: g, sink: &stream.Collect{OpName: "results"}, sources: map[string]*stream.Box{}}
	memo := map[*Query]*stream.Box{}
	top := q.build(g, c.sources, memo)
	sb := g.AddBox(c.sink)
	g.Connect(top, sb, 0)
	c.wireEntries()
	return c
}

// build recursively adds this node's boxes to the graph (parents first, so
// Close flushes in topological order) and returns the node's box.
//
// With Shards(n >= 1) set on a node, the box is rewritten shard-parallel:
//
//   - partitionable operators (core.PartitionedOp — the windowed-aggregate
//     box, whose per-key state never crosses keys) expand to their
//     ShardPlan: key-hash (or, without a dedup key, round-robin) Partition,
//     n shard instances, and the operator's deterministic merge;
//   - stateless boxes (stream.StatelessOp — selects/filters) with no
//     aggregate or join between them and their source replicate
//     round-robin behind a sequence-ordered merge that restores the
//     pre-partition stream order exactly; one downstream of an aggregate or
//     join (a Having) runs as one box after that stage's merge, the wiring
//     ClusterPlan.CompileHead uses;
//   - the probabilistic window join round-robins port 0 and broadcasts
//     port 1 (loc_equals has no certain equi-key, so every pair must still
//     meet in exactly one shard; a certain-key equi-join would hash both
//     ports), reunified by a union;
//   - everything else (sources) stays single.
func (q *Query) build(g *stream.Graph, sources map[string]*stream.Box, memo map[*Query]*stream.Box) *stream.Box {
	if b, ok := memo[q]; ok {
		return b
	}
	var b *stream.Box
	switch {
	case q.source != "":
		if sb, ok := sources[q.source]; ok {
			b = sb
			break
		}
		b = g.AddBox(stream.NewSelect("src:"+q.source, func(t *stream.Tuple) *stream.Tuple { return t }))
		sources[q.source] = b
	case q.left != nil:
		lb := q.left.build(g, sources, memo)
		rb := q.right.build(g, sources, memo)
		if q.shards >= 1 {
			b = buildShardedJoin(g, lb, rb, q.makeOp, q.shards)
			break
		}
		b = g.AddBox(q.makeOp())
		g.Connect(lb, b, 0)
		g.Connect(rb, b, 1)
	default:
		pb := q.parent.build(g, sources, memo)
		op := q.makeOp()
		if q.shards >= 1 {
			if po, ok := op.(core.PartitionedOp); ok {
				b = wireShardPlan(g, pb, op.Name(), po.Shard(q.shards), q.shards)
				break
			}
			if _, ok := op.(stream.StatelessOp); ok && !q.parent.pastState() {
				b = buildShardedStateless(g, pb, op, q.makeOp, q.shards)
				break
			}
		}
		b = g.AddBox(op)
		g.Connect(pb, b, 0)
	}
	memo[q] = b
	return b
}

// pastState reports whether q is, or lies downstream of, a stateful stage —
// a windowed aggregate or a join — on the way back to its source.
func (q *Query) pastState() bool {
	for n := q; n.source == ""; n = n.parent {
		if n.left != nil || n.aggAttr != "" {
			return true
		}
	}
	return false
}

// wireShardPlan adds a ShardPlan's boxes — Partition, shards, merge — and
// returns the merge box as the stage's output.
func wireShardPlan(g *stream.Graph, pb *stream.Box, name string, plan stream.ShardPlan, p int) *stream.Box {
	part := g.AddBox(stream.NewPartition(fmt.Sprintf("⇉%d·%s", p, name), p, plan.Partition))
	g.Connect(pb, part, 0)
	shardBoxes := make([]*stream.Box, len(plan.Shards))
	for i, s := range plan.Shards {
		shardBoxes[i] = g.AddBox(s)
		g.Connect(part, shardBoxes[i], 0)
	}
	mb := g.AddBox(plan.Merge)
	for i, sb := range shardBoxes {
		g.Connect(sb, mb, i)
	}
	return mb
}

// buildShardedStateless replicates a stateless box round-robin: the
// partitioner stamps arrival sequences and broadcasts watermarks; the
// sequence-ordered merge re-emits outputs in exact pre-partition order
// (filter drops leave holes the watermarks step over).
func buildShardedStateless(g *stream.Graph, pb *stream.Box, first stream.Operator, makeOp func() stream.Operator, p int) *stream.Box {
	name := first.Name()
	plan := stream.ShardPlan{
		Partition: stream.PartitionSpec{Watermarks: true},
		Merge:     stream.NewSeqMerge("⋈seq·"+name, p),
	}
	for i := 0; i < p; i++ {
		op := first
		if i > 0 {
			op = makeOp()
		}
		plan.Shards = append(plan.Shards, stream.NewStatelessShard(op, i, p))
	}
	return wireShardPlan(g, pb, name, plan, p)
}

// buildShardedJoin shards a two-port join: port 0 partitions round-robin,
// port 1 broadcasts (each left tuple meets the full right stream in exactly
// one shard, so the match set — and every match's probability arithmetic —
// is identical to the unsharded join); a union reunifies. Emission order
// across shards follows arrival interleaving, exactly as the unsharded
// join's does under channel execution; consumers canonicalize (Q2Alerts
// sorts) in both cases.
func buildShardedJoin(g *stream.Graph, lb, rb *stream.Box, makeOp func() stream.Operator, p int) *stream.Box {
	first := makeOp()
	name := first.Name()
	part := g.AddBox(stream.NewPartition(fmt.Sprintf("⇉%d·%s", p, name), p, stream.PartitionSpec{}))
	g.Connect(lb, part, 0)
	bcast := g.AddBox(stream.NewUnion("⇶·" + name))
	g.Connect(rb, bcast, 0)
	mb := g.AddBox(stream.NewUnion("⋃·" + name))
	for i := 0; i < p; i++ {
		op := first
		if i > 0 {
			op = makeOp()
		}
		sb := g.AddBox(op)
		g.Connect(part, sb, 0)
		g.Connect(bcast, sb, 1)
		g.Connect(sb, mb, i)
	}
	return mb
}

// OnResult switches the compiled sink to streaming mode: fn receives each
// result tuple as it is produced — from the sink box's goroutine under the
// channel executor, inline under Push — and nothing accumulates for
// Results/Close to return. This is the shape continuous consumers need
// (the ingest server forwards alerts to subscribers as windows close).
// Call it before feeding any tuples.
func (c *Compiled) OnResult(fn func(*stream.Tuple)) {
	c.sink.OnTuple = fn
}

// LookupSource resolves a source name to its injection point without
// panicking — the ingest boundary's form of srcEntry, where an unknown
// source named by a client line is a per-connection error, not a crash.
func (c *Compiled) LookupSource(name string) (b *stream.Box, port int, ok bool) {
	e, found := c.entry[name]
	if !found {
		return nil, 0, false
	}
	return e.box, e.port, true
}

// srcEntry resolves a source name to its injection point, panicking on a
// name the query does not read.
func (c *Compiled) srcEntry(name string) srcEntry {
	e, ok := c.entry[name]
	if !ok {
		panic(fmt.Sprintf("uop: unknown source %q", name))
	}
	return e
}

// Push injects one uncertain tuple synchronously; processing cascades
// depth-first through the diagram.
func (c *Compiled) Push(source string, u *core.UTuple) {
	e := c.srcEntry(source)
	c.Graph.Push(e.box, e.port, core.Wrap(u))
}

// PushTuple injects an already-wrapped carrier tuple (core.Wrap) — for
// feeders that wrap once and replay, avoiding a fresh carrier per push.
// Operators treat input tuples as immutable, so the same wrapped stream can
// be replayed through multiple compiled graphs.
func (c *Compiled) PushTuple(source string, t *stream.Tuple) {
	e := c.srcEntry(source)
	c.Graph.Push(e.box, e.port, t)
}

// Results drains and returns the tuples the sink has collected so far —
// streaming consumers call it between pushes to pick up alerts as windows
// close. Not safe during a channel run (the sink fills from its goroutine).
func (c *Compiled) Results() []*stream.Tuple {
	out := c.sink.Tuples
	c.sink.Reset()
	return out
}

// Close flushes the diagram (draining open windows) and returns everything
// the sink collected.
func (c *Compiled) Close() []*stream.Tuple {
	c.Graph.Close()
	return c.Results()
}

// Trace is a finite input for Run: each source's uncertain tuples, keyed
// by source name, in arrival order.
type Trace map[string][]*core.UTuple

// Run evaluates a finite trace and returns every result tuple. It is the
// one place sources are merged by timestamp: each source keeps its own
// order, the next tuple is the earliest among the sources' heads, and on
// a tie the source whose name sorts first goes first. A source the query
// does not read panics, as Push does. buffer 0 runs the synchronous Push
// executor (the reference) and then Close; buffer > 0 replays the merged
// trace as a stream.SliceSource through the channel executor
// (Graph.RunLiveOpts, one goroutine per box) with that per-box buffer.
func (c *Compiled) Run(tr Trace, buffer int) []*stream.Tuple {
	names := make([]string, 0, len(tr))
	for name := range tr {
		names = append(names, name)
	}
	sort.Strings(names)
	srcs := make([][]*core.UTuple, len(names))
	entries := make([]srcEntry, len(names))
	for i, name := range names {
		srcs[i], entries[i] = tr[name], c.srcEntry(name)
	}
	var sts []stream.SourceTuple
	for {
		k := -1
		for i, src := range srcs {
			if len(src) > 0 && (k < 0 || src[0].TS < srcs[k][0].TS) {
				k = i
			}
		}
		if k < 0 {
			break
		}
		e, t := entries[k], core.Wrap(srcs[k][0])
		srcs[k] = srcs[k][1:]
		if buffer == 0 {
			c.Graph.Push(e.box, e.port, t)
		} else {
			sts = append(sts, stream.SourceTuple{Box: e.box, Port: e.port, T: t})
		}
	}
	if buffer == 0 {
		return c.Close()
	}
	// A background context never cancels, so the run cannot fail.
	_ = c.Graph.RunLiveOpts(context.Background(), stream.SliceSource(sts), stream.LiveOptions{Buffer: buffer})
	return c.Results()
}

// Describe renders the compiled diagram topology.
func (c *Compiled) Describe() string { return c.Graph.Describe() }
