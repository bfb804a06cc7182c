// The reference queries of §2.1, expressed in the builder API and executed
// as compiled box-arrow diagrams. BuildQ1..BuildQ4 return the query chains;
// Compiled.Run evaluates a finite trace under either executor, and
// Q1Alerts/Q2Alerts read its output in the reference shape.
package uop

import (
	"sort"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/rfid"
	"repro/internal/stream"
)

// LocationUTuple lifts an RFID T-operator output into an uncertain tuple
// with attributes x, y, z and the registered (certain) weight — the inner
// Select-From of Q1, which "simply adds two attributes to each tuple". The
// tag id rides as a typed certain key, never as a float64.
func LocationUTuple(lt rfid.LocationTuple, w *rfid.Warehouse) *core.UTuple {
	u := core.NewUTuple(lt.T,
		[]string{"x", "y", "z", "weight"},
		[]dist.Dist{lt.X, lt.Y, lt.Z, dist.PointMass{V: w.Weight(lt.TagID)}})
	u.SetKey("tag", lt.TagID)
	return u
}

// Q1Config parameterizes the fire-code query of §2.1.
type Q1Config struct {
	// WindowMS is the Range window (paper: 5 seconds).
	WindowMS stream.Time
	// SlideMS, when positive, evaluates the window as a sliding Rstream —
	// [Range WindowMS] re-emitted every SlideMS — instead of tumbling.
	// Sliding windows take the incremental aggregation path.
	SlideMS stream.Time
	// Shards >= 1 compiles the diagram shard-parallel: the keyed group
	// aggregate runs as that many data-parallel instances (hash of the tag
	// dedup key) behind a deterministic merge that keeps alerts
	// byte-identical to the unsharded plan, and the HAVING runs as one box
	// after the merge. 0 disables the rewrite.
	Shards int
	// ThresholdLbs is the Having threshold (paper: 200 pounds).
	ThresholdLbs float64
	// MinAreaMass prunes negligible area memberships (default 0.01).
	MinAreaMass float64
	// MinAlertProb is the confidence floor for reporting (default 0.5).
	MinAlertProb float64
	// AreaFt is the grouping cell size in feet (paper: per square foot;
	// larger cells make demos readable — default 1).
	AreaFt float64
	// Strategy/Agg select the aggregation algorithm.
	Strategy core.Strategy
	Agg      core.AggOptions
}

func (c Q1Config) withDefaults() Q1Config {
	if c.WindowMS <= 0 {
		c.WindowMS = 5 * stream.Second
	}
	if c.ThresholdLbs <= 0 {
		c.ThresholdLbs = 200
	}
	if c.MinAreaMass <= 0 {
		c.MinAreaMass = 0.01
	}
	if c.MinAlertProb <= 0 {
		c.MinAlertProb = 0.5
	}
	if c.AreaFt <= 0 {
		c.AreaFt = 1
	}
	return c
}

// Q1Alert is one reported fire-code violation with quantified uncertainty.
type Q1Alert struct {
	TS   stream.Time
	Area string
	// Total is the full distribution of the group's summed weight.
	Total dist.Dist
	// PViolation is P(total weight > threshold).
	PViolation float64
}

// areaMember builds the probabilistic floor-cell group assignment shared by
// the grouped reference queries: the uncertain location, rescaled into
// grouping-cell units, spread over the cells it intersects.
func areaMember(areaFt, minMass float64) core.Membership {
	scale := 1 / areaFt
	return func(u *core.UTuple) []core.GroupMass {
		return rfid.AppendAreaMasses(nil, u.Val("x"), u.Val("y"), scale, minMass, groupMass)
	}
}

func groupMass(area string, p float64) core.GroupMass { return core.GroupMass{Group: area, P: p} }

// q1Member is Q1's group assignment, kept as the config-shaped wrapper.
func q1Member(cfg Q1Config) core.Membership {
	return areaMember(cfg.AreaFt, cfg.MinAreaMass)
}

// BuildQ1 compiles Q1 — tumbling (or, with SlideMS, sliding) windows, one
// contribution per tag per window, probabilistic GROUP BY area, SUM(weight)
// with full result distributions, confidence-annotated HAVING — as a query
// chain over the source stream "locations".
func BuildQ1(cfg Q1Config) *Query { return buildQ1(cfg, false) }

// buildQ1 is BuildQ1 with the aggregate optionally pinned to the per-window
// rescan path: the reference the tests hold the incremental plan against.
func buildQ1(cfg Q1Config, recompute bool) *Query {
	cfg = cfg.withDefaults()
	q := From("locations").
		Shards(cfg.Shards).
		WindowSpec(stream.WindowSpec{Duration: cfg.WindowMS, Slide: cfg.SlideMS}).
		DedupLatest("tag").
		GroupBy(q1Member(cfg))
	if recompute {
		q = q.rescan()
	}
	return q.
		Sum("weight", cfg.Strategy, cfg.Agg).
		Having(Greater(cfg.ThresholdLbs, cfg.MinAlertProb))
}

// Q1Alerts converts collected Q1 (or Q3) alert tuples into the reference
// shape.
func Q1Alerts(ts []*stream.Tuple) []Q1Alert {
	var out []Q1Alert
	for _, t := range ts {
		u := core.Unwrap(t)
		out = append(out, Q1Alert{
			TS: t.TS, Area: t.Str("group"),
			Total: u.Attr("weight"), PViolation: t.Get("p").(float64),
		})
	}
	return out
}

// Q3Config parameterizes the streaming-quantile query (PR 10): the
// Level-quantile of the registered weights per floor cell — QUANTILE_q(weight)
// over the same windowed, tag-deduplicated, probabilistically grouped stream
// as Q1 — reported when the quantile exceeds ThresholdLbs with confidence
// MinAlertProb. Where Q1's SUM asks "is this area overloaded in total", Q3
// asks "is the typical object here heavy": a median unmoved by one massive
// crate, or a 0.9-quantile flagging cells whose heaviest decile drifts up.
type Q3Config struct {
	// WindowMS is the Range window (default 5 seconds).
	WindowMS stream.Time
	// SlideMS, when positive, evaluates the window as a sliding Rstream on
	// the incremental path.
	SlideMS stream.Time
	// Shards >= 1 compiles the diagram shard-parallel.
	Shards int
	// Level is the quantile level q in [0, 1]. 0 selects the default 0.5
	// (the median); callers wanting the true minimum pass a tiny positive q.
	Level float64
	// ThresholdLbs is the Having threshold on the quantile (default 25).
	ThresholdLbs float64
	// MinAreaMass prunes negligible area memberships (default 0.01).
	MinAreaMass float64
	// MinAlertProb is the confidence floor for reporting (default 0.5).
	MinAlertProb float64
	// AreaFt is the grouping cell size in feet (default 1).
	AreaFt float64
	// Quantile tunes the estimator (sketch resolution, exact-path cutoff).
	Quantile core.QuantileOptions
}

func (c Q3Config) withDefaults() Q3Config {
	if c.WindowMS <= 0 {
		c.WindowMS = 5 * stream.Second
	}
	if c.Level == 0 {
		c.Level = 0.5
	}
	if c.ThresholdLbs <= 0 {
		c.ThresholdLbs = 25
	}
	if c.MinAreaMass <= 0 {
		c.MinAreaMass = 0.01
	}
	if c.MinAlertProb <= 0 {
		c.MinAlertProb = 0.5
	}
	if c.AreaFt <= 0 {
		c.AreaFt = 1
	}
	return c
}

// BuildQ3 compiles the per-area weight-quantile query as a chain over the
// source stream "locations". The alert schema matches Q1's — group, p, and
// the result distribution under the aggregated attribute ("weight") — so
// every downstream consumer (streamd alert encoding, cluster merge, demos)
// works unchanged.
func BuildQ3(cfg Q3Config) *Query {
	cfg = cfg.withDefaults()
	return From("locations").
		Shards(cfg.Shards).
		WindowSpec(stream.WindowSpec{Duration: cfg.WindowMS, Slide: cfg.SlideMS}).
		DedupLatest("tag").
		GroupBy(areaMember(cfg.AreaFt, cfg.MinAreaMass)).
		Quantile("weight", cfg.Level, cfg.Quantile).
		Having(Greater(cfg.ThresholdLbs, cfg.MinAlertProb))
}

// Q4Config parameterizes the probabilistic top-k dominating query (PR 10):
// per window, the K objects most likely to dominate the rest of the window
// in every ranked dimension (default x and y — "which tags sit deepest into
// the far corner"), each reported with the full distribution of its
// dominated count. Rows carry the certain keys "rank" and the object tag.
type Q4Config struct {
	// WindowMS is the Range window (default 5 seconds).
	WindowMS stream.Time
	// SlideMS, when positive, evaluates the window as a sliding Rstream.
	SlideMS stream.Time
	// Shards >= 1 compiles the diagram shard-parallel.
	Shards int
	// K is how many ranks to report (default 3).
	K int
	// Attrs are the ranked uncertain dimensions (default x, y).
	Attrs []string
	// MinCount, when positive, adds a Having clause: report a rank only if
	// it dominates more than MinCount others with confidence MinProb.
	MinCount float64
	// MinProb is the Having confidence floor (default 0.5; used only with
	// MinCount).
	MinProb float64
	// TopK tunes the dominance sketch; Label defaults to "tag".
	TopK core.TopKOptions
}

func (c Q4Config) withDefaults() Q4Config {
	if c.WindowMS <= 0 {
		c.WindowMS = 5 * stream.Second
	}
	if c.K <= 0 {
		c.K = 3
	}
	if len(c.Attrs) == 0 {
		c.Attrs = []string{"x", "y"}
	}
	if c.MinProb <= 0 {
		c.MinProb = 0.5
	}
	if c.TopK.Label == "" {
		c.TopK.Label = "tag"
	}
	return c
}

// BuildQ4 compiles the top-k dominating query as a chain over "locations".
// The aggregate runs ungrouped — the window itself is the population — on
// the same pluggable-accumulator spine as Q1 and Q3, so sharding, cluster
// split, and checkpointing apply unchanged.
func BuildQ4(cfg Q4Config) *Query {
	cfg = cfg.withDefaults()
	q := From("locations").
		Shards(cfg.Shards).
		WindowSpec(stream.WindowSpec{Duration: cfg.WindowMS, Slide: cfg.SlideMS}).
		DedupLatest("tag").
		TopKDominating(cfg.Attrs, cfg.K, cfg.TopK)
	if cfg.MinCount > 0 {
		q = q.Having(Greater(cfg.MinCount, cfg.MinProb))
	}
	return q
}

// TempReading is one tuple of Q2's temperature stream: (time, (x, y, z),
// temp^p) — the sensor location is known, the reading uncertain.
type TempReading struct {
	TS      stream.Time
	X, Y, Z float64
	Temp    dist.Dist
}

// TempUTuple lifts a temperature reading into an uncertain tuple.
func TempUTuple(tr TempReading) *core.UTuple {
	return core.NewUTuple(tr.TS,
		[]string{"x", "y", "temp"},
		[]dist.Dist{dist.PointMass{V: tr.X}, dist.PointMass{V: tr.Y}, tr.Temp})
}

// Q2Config parameterizes the flammable-object alert query of §2.1.
type Q2Config struct {
	// RangeMS is each side's join window (paper: 3 seconds).
	RangeMS stream.Time
	// TempThreshold in °C (paper: 60).
	TempThreshold float64
	// LocTolFt is the co-location tolerance defining loc_equals.
	LocTolFt float64
	// MinProb drops alerts with existence below this.
	MinProb float64
	// Shards >= 1 compiles the diagram shard-parallel: both filter stages
	// replicate round-robin and the join runs as that many instances (port
	// 0 round-robin, port 1 broadcast). 0 disables the rewrite.
	Shards int
}

func (c Q2Config) withDefaults() Q2Config {
	if c.RangeMS <= 0 {
		c.RangeMS = 3 * stream.Second
	}
	if c.TempThreshold == 0 {
		c.TempThreshold = 60
	}
	if c.LocTolFt <= 0 {
		c.LocTolFt = 3
	}
	if c.MinProb <= 0 {
		c.MinProb = 0.05
	}
	return c
}

// Q2Alert is one flammable-object/high-temperature co-location alert.
type Q2Alert struct {
	TS    stream.Time
	TagID int64
	// P is the alert probability: P(flammable tuple exists) × P(temp > θ)
	// × P(co-located).
	P float64
	// Temp is the conditional temperature distribution given temp > θ.
	Temp dist.Dist
	// X, Y are the object's location distributions.
	X, Y dist.Dist
}

// BuildQ2 compiles Q2 as a two-source diagram: the certain flammability
// filter over "locations" joined on probabilistic co-location with the
// uncertain hot filter over "temps".
func BuildQ2(w *rfid.Warehouse, cfg Q2Config) *Query {
	cfg = cfg.withDefaults()
	flam := From("locations").Shards(cfg.Shards).Where("σ(type=flammable)", func(u *core.UTuple) bool {
		return w.ObjectType(u.Key("tag")) == "flammable"
	})
	hot := From("temps").Shards(cfg.Shards).WhereGreater("temp", cfg.TempThreshold, cfg.MinProb)
	return flam.JoinProb(hot, cfg.RangeMS, []string{"x", "y"}, cfg.LocTolFt, cfg.MinProb)
}

// Q2Alerts converts collected Q2 join output tuples into the reference
// shape, sorted deterministically (join emission order depends on arrival
// interleaving under channel execution; the set of matches does not).
func Q2Alerts(ts []*stream.Tuple) []Q2Alert {
	var out []Q2Alert
	for _, t := range ts {
		u := core.Unwrap(t)
		out = append(out, Q2Alert{
			TS: u.TS, TagID: u.Key("tag"), P: u.Exist,
			Temp: u.Attr("temp"), X: u.Attr("x"), Y: u.Attr("y"),
		})
	}
	sortQ2Alerts(out)
	return out
}

// sortQ2Alerts orders alerts deterministically by (time, tag, probability,
// conditional temperature).
func sortQ2Alerts(out []Q2Alert) {
	sort.SliceStable(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.TS != b.TS {
			return a.TS < b.TS
		}
		if a.TagID != b.TagID {
			return a.TagID < b.TagID
		}
		if a.P != b.P {
			return a.P > b.P
		}
		return a.Temp.Mean() < b.Temp.Mean()
	})
}
