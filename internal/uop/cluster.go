package uop

import (
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/stream"
)

// This file is the cluster planner: it splits a compiled query at the same
// partial/merge boundary the in-process Shards rewrite uses, but across a
// network edge. The router (internal/router) runs the partition side — the
// window clock and key routing — and the deterministic merge plus any
// post-aggregate stages; each worker process runs one partial-aggregate
// instance over its key subset. Partials and close punctuations travel
// between processes in core.PartCodec frames, which carry every value the
// merge reads bit for bit (and only those), so the merge sees the port
// streams an in-process Partition box would deliver, and the alert bytes
// match the single-process plan.

// ClusterPlan is a query split for cluster execution.
type ClusterPlan struct {
	// Source is the query's single input stream name.
	Source string
	// Key is the dedup key whose hash routes tuples to workers ("" routes
	// everything round-robin — legal when the aggregate declares no dedup
	// key, since without dedup no per-key locality is required).
	Key string
	// Window is the aggregate's window policy; the router replicates its
	// clock so every worker sees the exact close sequence the unsharded
	// plan would generate.
	Window stream.WindowSpec

	name string
	cfg  core.WindowAggConfig
	post []func() stream.Operator
}

// ClusterPort names the head-graph source that carries worker i's partial
// stream — the merge's input port i.
func ClusterPort(i int) string { return fmt.Sprintf("worker%d", i) }

// Cluster splits the query chain for cluster execution, or explains why it
// cannot run clustered. Eligible chains are single-source, join-free, and
// consist of exactly one windowed aggregate followed by only stateless
// stages:
//
//   - A stage before the aggregate would filter or rewrite tuples ahead of
//     the window clock, but the router's clock must observe precisely the
//     aggregate's input stream (a dropped tuple never advances the
//     unsharded clock), so pre-aggregate stages are rejected rather than
//     silently changing close timing.
//   - The probabilistic join broadcasts a full side to every shard; at
//     cluster scale that is a fan-out, not a partition — run joins
//     single-process with Shards instead.
//
// Post-aggregate stateless stages (Having) run on the router head as one
// box each after the merge, exactly where a sharded single-process plan
// runs them (Query.build shards no stateless stage past an aggregate).
func (q *Query) Cluster() (*ClusterPlan, error) {
	if q.win != nil || q.member != nil || q.dedup != "" {
		return nil, errors.New("uop: Window/GroupBy/DedupLatest without a consuming aggregate")
	}
	var chain []*Query
	node := q
	for node.source == "" {
		if node.left != nil {
			return nil, errors.New("uop: joins cannot run clustered (port 1 broadcasts a full side per shard); run the join single-process with Shards")
		}
		if node.parent == nil {
			return nil, errors.New("uop: query chain has no source")
		}
		chain = append(chain, node)
		node = node.parent
	}
	plan := &ClusterPlan{Source: node.source}
	// Instantiate each stage once (source → sink order) to classify it.
	ops := make([]stream.Operator, len(chain))
	agg := -1
	for i := len(chain) - 1; i >= 0; i-- {
		ops[i] = chain[i].makeOp()
		if wa, ok := ops[i].(interface{ WindowAggConfig() core.WindowAggConfig }); ok {
			if agg >= 0 {
				return nil, fmt.Errorf("uop: second aggregate %q; cluster execution supports exactly one windowed aggregate", ops[i].Name())
			}
			agg = i
			plan.name = ops[i].Name()
			plan.cfg = wa.WindowAggConfig()
			plan.Key = plan.cfg.DedupKey
			plan.Window = plan.cfg.Window
		}
	}
	if agg < 0 {
		return nil, errors.New("uop: cluster execution requires a windowed aggregate (Sum, Quantile, or TopKDominating)")
	}
	for i := len(chain) - 1; i >= 0; i-- { // source → sink order
		switch {
		case i == agg:
		case i > agg:
			return nil, fmt.Errorf("uop: stage %q precedes the aggregate; cluster routing must feed the aggregate's window clock directly", ops[i].Name())
		default:
			if _, ok := ops[i].(stream.StatelessOp); !ok {
				return nil, fmt.Errorf("uop: post-aggregate stage %q is stateful; only stateless stages can run on the router head", ops[i].Name())
			}
			plan.post = append(plan.post, chain[i].makeOp)
		}
	}
	return plan, nil
}

// CompileWorker builds the graph one worker process runs: source → partial
// group aggregate → sink. The partial instance is externally clocked — it
// buffers data tuples and acts only on the close punctuations the router
// broadcasts — and its sink stream (per-group partials, then the forwarded
// close, per window) is what the worker ships back as part frames.
func (p *ClusterPlan) CompileWorker() *Compiled {
	g := stream.NewGraph()
	c := &Compiled{Graph: g, sink: &stream.Collect{OpName: "partials"}, sources: map[string]*stream.Box{}}
	src := g.AddBox(stream.NewSelect("src:"+p.Source, func(t *stream.Tuple) *stream.Tuple { return t }))
	c.sources[p.Source] = src
	part := g.AddBox(core.NewWindowAggPartialOp(p.name+"#cluster", p.cfg))
	g.Connect(src, part, 0)
	sb := g.AddBox(c.sink)
	g.Connect(part, sb, 0)
	c.wireEntries()
	return c
}

// CompileHead builds the router-side graph for w workers: source boxes
// worker0..worker{w-1} → the deterministic w-way merge (port i per worker)
// → the post-aggregate stages → sink. Identical to the in-process plan
// from the merge down, so alerts are byte-identical to single-process
// execution.
func (p *ClusterPlan) CompileHead(w int) *Compiled {
	if w < 1 {
		panic("uop: cluster head needs at least one worker")
	}
	g := stream.NewGraph()
	c := &Compiled{Graph: g, sink: &stream.Collect{OpName: "alerts"}, sources: map[string]*stream.Box{}}
	merge := g.AddBox(core.NewWindowAggMergeOp("merge·"+p.name, p.cfg, w))
	for i := 0; i < w; i++ {
		src := g.AddBox(stream.NewSelect("src:"+ClusterPort(i), func(t *stream.Tuple) *stream.Tuple { return t }))
		c.sources[ClusterPort(i)] = src
		g.Connect(src, merge, i)
	}
	top := merge
	for _, mk := range p.post {
		b := g.AddBox(mk())
		g.Connect(top, b, 0)
		top = b
	}
	sb := g.AddBox(c.sink)
	g.Connect(top, sb, 0)
	c.wireEntries()
	return c
}

// wireEntries resolves each source's injection point, matching Compile's
// single-consumer optimization.
func (c *Compiled) wireEntries() {
	c.entry = make(map[string]srcEntry, len(c.sources))
	for name, b := range c.sources {
		if to, port, ok := b.SoleConsumer(); ok {
			c.entry[name] = srcEntry{to, port}
		} else {
			c.entry[name] = srcEntry{b, 0}
		}
	}
}
