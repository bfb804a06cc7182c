package core

import (
	"math"
	"testing"

	"repro/internal/dist"
	"repro/internal/lineage"
	"repro/internal/rng"
)

func TestSelectGreaterSemantics(t *testing.T) {
	u := NewUTuple(0, []string{"temp"}, []dist.Dist{dist.NewNormal(60, 5)})
	sel := SelectGreater(u, "temp", 60, 0.01)
	if sel == nil {
		t.Fatal("selection dropped a 50% tuple")
	}
	if math.Abs(sel.Exist-0.5) > 1e-9 {
		t.Errorf("existence = %g, want 0.5", sel.Exist)
	}
	// The surviving attribute is the conditional (truncated) distribution.
	if sel.Attr("temp").Mean() <= 60 {
		t.Errorf("conditional mean %g should exceed 60", sel.Attr("temp").Mean())
	}
	if sel.Attr("temp").CDF(59.9) > 1e-9 {
		t.Error("truncated distribution has mass below the threshold")
	}
	// Original tuple is untouched.
	if u.Exist != 1 || u.Attr("temp").Mean() != 60 {
		t.Error("input tuple mutated")
	}
}

func TestSelectGreaterDropsImplausible(t *testing.T) {
	u := NewUTuple(0, []string{"temp"}, []dist.Dist{dist.NewNormal(20, 2)})
	if SelectGreater(u, "temp", 60, 0.01) != nil {
		t.Error("20±2 > 60 should be dropped")
	}
}

func TestSelectLessAndBetween(t *testing.T) {
	u := NewUTuple(0, []string{"v"}, []dist.Dist{dist.NewNormal(0, 1)})
	less := SelectLess(u, "v", 0, 0.01)
	if math.Abs(less.Exist-0.5) > 1e-9 {
		t.Errorf("less existence = %g", less.Exist)
	}
}

func TestEqualProbMonteCarloAgreement(t *testing.T) {
	x := dist.NewNormal(0, 1)
	y := dist.NewNormal(0.5, 1.5)
	tol := 0.8
	analytic := EqualProb(x, y, tol)
	g := rng.New(7)
	n := 400000
	hits := 0
	for i := 0; i < n; i++ {
		if math.Abs(x.Sample(g)-y.Sample(g)) <= tol {
			hits++
		}
	}
	mc := float64(hits) / float64(n)
	if math.Abs(analytic-mc) > 0.005 {
		t.Errorf("EqualProb analytic %g vs MC %g", analytic, mc)
	}
}

func TestEqualProbPointMasses(t *testing.T) {
	a := dist.PointMass{V: 1}
	b := dist.PointMass{V: 1.5}
	if EqualProb(a, b, 1) != 1 || EqualProb(a, b, 0.2) != 0 {
		t.Error("point-point equality wrong")
	}
	x := dist.NewNormal(1, 1)
	want := x.CDF(2) - x.CDF(0)
	if math.Abs(EqualProb(x, a, 1)-want) > 1e-9 {
		t.Error("dist-point equality wrong")
	}
	if math.Abs(EqualProb(a, x, 1)-want) > 1e-9 {
		t.Error("point-dist equality wrong")
	}
	if EqualProb(x, a, 0) != 0 {
		t.Error("zero tolerance must be 0")
	}
}

func TestLocEqualProbProduct(t *testing.T) {
	x := []dist.Dist{dist.NewNormal(0, 1), dist.NewNormal(0, 1)}
	y := []dist.Dist{dist.NewNormal(0, 1), dist.NewNormal(10, 1)}
	// Second axis nearly disjoint → tiny product.
	if p := LocEqualProb(x, y, 1); p > 1e-4 {
		t.Errorf("disjoint axis should kill the product: %g", p)
	}
}

func TestJoinProbBookkeeping(t *testing.T) {
	l := NewUTuple(10, []string{"x", "y", "temp"}, []dist.Dist{
		dist.NewNormal(5, 0.5), dist.NewNormal(5, 0.5), dist.NewNormal(70, 2)})
	r := NewUTuple(12, []string{"x", "y", "temp"}, []dist.Dist{
		dist.PointMass{V: 5}, dist.PointMass{V: 5}, dist.NewNormal(80, 1)})
	out := JoinProb(l, r, []string{"x", "y"}, 2, 0.01)
	if out == nil {
		t.Fatal("co-located tuples did not join")
	}
	if out.TS != 12 {
		t.Errorf("join TS = %d", out.TS)
	}
	if !out.Lin.Contains(l.ID) || !out.Lin.Contains(r.ID) {
		t.Error("join lineage incomplete")
	}
	// Clashing attrs get prefixed.
	if !out.HasAttr("r_x") || !out.HasAttr("r_temp") {
		t.Error("right attributes missing")
	}
	if out.Exist <= 0 || out.Exist > 1 {
		t.Errorf("join existence = %g", out.Exist)
	}
	// Far-apart tuples don't join.
	far := NewUTuple(12, []string{"x", "y"}, []dist.Dist{
		dist.PointMass{V: 50}, dist.PointMass{V: 50}})
	if JoinProb(l, far, []string{"x", "y"}, 2, 0.01) != nil {
		t.Error("distant tuples joined")
	}
}

func TestGroupSumSpreadsMembership(t *testing.T) {
	// One object, weight 100, location straddling two cells: each cell's
	// total-weight distribution is a Bernoulli-gated 100.
	u := NewUTuple(0, []string{"x", "y", "weight"}, []dist.Dist{
		dist.NewNormal(1.0, 0.3), // straddles cells 0 and 1
		dist.NewNormal(0.5, 0.05),
		dist.PointMass{V: 100},
	})
	member := func(u *UTuple) []GroupMass {
		x := u.Attr("x")
		return []GroupMass{
			{Group: "left", P: x.CDF(1)},
			{Group: "right", P: 1 - x.CDF(1)},
		}
	}
	rs := GroupSum([]*UTuple{u}, "weight", member, CFInvert, AggOptions{})
	if len(rs) != 2 {
		t.Fatalf("groups = %d", len(rs))
	}
	var totalMean float64
	for _, r := range rs {
		totalMean += r.Dist.Mean()
	}
	// Expected total weight across cells equals the object weight.
	if math.Abs(totalMean-100) > 0.5 {
		t.Errorf("mass leaked: total mean = %g", totalMean)
	}
}

func TestHavingGreaterConfidence(t *testing.T) {
	rs := []GroupResult{
		{Group: "a", Dist: dist.NewNormal(250, 10)}, // clearly above 200
		{Group: "b", Dist: dist.NewNormal(150, 10)}, // clearly below
		{Group: "c", Dist: dist.NewNormal(200, 10)}, // borderline
	}
	hs := HavingGreater(rs, 200, 0.4)
	if len(hs) != 2 {
		t.Fatalf("having kept %d groups", len(hs))
	}
	if hs[0].Group != "a" || hs[0].PAbove < 0.99 {
		t.Errorf("group a: %+v", hs[0])
	}
	if hs[1].Group != "c" || math.Abs(hs[1].PAbove-0.5) > 0.01 {
		t.Errorf("group c: %+v", hs[1])
	}
}

func TestCondChainMarginalAndSum(t *testing.T) {
	// X0 ~ N(0,1); X_{n+1} = 0.9 X_n + ε, ε ~ N(0, 0.19) → stationary var ~1.
	chain := &CondChain{Root: dist.NewNormal(0, 1)}
	for i := 0; i < 9; i++ {
		chain.Links = append(chain.Links, CondLink{A: 0.9, B: 0, S: math.Sqrt(0.19)})
	}
	if chain.Len() != 10 {
		t.Fatal("len")
	}
	m9 := chain.Marginal(9)
	if math.Abs(m9.Variance()-1) > 0.01 {
		t.Errorf("stationary marginal var = %g", m9.Variance())
	}
	exact := chain.SumDist()
	naive := chain.SumAssumingIndependent()
	if exact.Variance() <= naive.Variance() {
		t.Errorf("positively correlated chain: exact var %g must exceed naive %g",
			exact.Variance(), naive.Variance())
	}
	// Monte Carlo check of the exact sum variance.
	g := rng.New(9)
	n := 100000
	var s, s2 float64
	for i := 0; i < n; i++ {
		xs := chain.JointSample(g)
		var tot float64
		for _, x := range xs {
			tot += x
		}
		s += tot
		s2 += tot * tot
	}
	mcVar := s2/float64(n) - (s/float64(n))*(s/float64(n))
	if math.Abs(mcVar-exact.Variance()) > 0.05*exact.Variance() {
		t.Errorf("MC sum var %g vs exact %g", mcVar, exact.Variance())
	}
}

func TestFinalSumIndependentFastPath(t *testing.T) {
	// Disjoint lineage: FinalSum must agree with plain Sum.
	u1 := NewUTuple(0, []string{"v"}, []dist.Dist{dist.NewNormal(1, 1)})
	u2 := NewUTuple(0, []string{"v"}, []dist.Dist{dist.NewNormal(2, 1)})
	got := FinalSum([]*UTuple{u1, u2}, "v", nil, FinalSumOptions{Strategy: CFInvert})
	exact := dist.NewNormal(3, math.Sqrt(2))
	if d := dist.VarianceDistance(got, exact, 4096); d > 0.01 {
		t.Errorf("fast path distance = %g", d)
	}
}

func TestFinalSumSharedLineage(t *testing.T) {
	// Two intermediate tuples BOTH containing base tuple b (plus their own
	// private bases): Var(sum) must include 2·Var(b) extra vs independence.
	base := func(mu float64) (*UTuple, dist.Dist) {
		d := dist.NewNormal(mu, 1)
		u := NewUTuple(0, []string{"v"}, []dist.Dist{d})
		return u, d
	}
	b, bd := base(5)
	p1, p1d := base(1)
	p2, p2d := base(2)

	arch := lineage.NewArchive[dist.Dist](64)
	arch.Put(b.ID, bd)
	arch.Put(p1.ID, p1d)
	arch.Put(p2.ID, p2d)

	// Intermediates: t1 = b + p1, t2 = b + p2 (e.g. join reused b).
	t1 := Derive(0, []string{"v"}, []dist.Dist{dist.ConvolveNormals(dist.NewNormal(5, 1), dist.NewNormal(1, 1))}, b, p1)
	t2 := Derive(0, []string{"v"}, []dist.Dist{dist.ConvolveNormals(dist.NewNormal(5, 1), dist.NewNormal(2, 1))}, b, p2)

	got := FinalSum([]*UTuple{t1, t2}, "v", arch, FinalSumOptions{Strategy: CFInvert, JointSamples: 60000, Seed: 3})
	// Truth: sum = 2b + p1 + p2 → mean 13, var 4·1 + 1 + 1 = 6.
	if math.Abs(got.Mean()-13) > 0.1 {
		t.Errorf("joint mean = %g, want 13", got.Mean())
	}
	if math.Abs(got.Variance()-6) > 0.4 {
		t.Errorf("joint var = %g, want 6 (independence would give 4)", got.Variance())
	}
}

func TestFinalSumMissingArchiveFallsBack(t *testing.T) {
	// Shared lineage but empty archive: falls back to marginals (documented
	// approximation) without crashing.
	b := NewUTuple(0, []string{"v"}, []dist.Dist{dist.NewNormal(0, 1)})
	t1 := Derive(0, []string{"v"}, []dist.Dist{dist.NewNormal(0, 1)}, b)
	t2 := Derive(0, []string{"v"}, []dist.Dist{dist.NewNormal(0, 1)}, b)
	got := FinalSum([]*UTuple{t1, t2}, "v", nil, FinalSumOptions{JointSamples: 5000})
	if got.Variance() <= 0 {
		t.Error("fallback produced degenerate result")
	}
}

func TestDeliverModes(t *testing.T) {
	d := dist.NewNormal(10, 2)
	full := Deliver(d, DeliverFull, 0)
	if full.Full == nil {
		t.Error("full missing")
	}
	conf := Deliver(d, DeliverConfidence, 0.9)
	if !conf.Region.Contains(10) || conf.Level != 0.9 {
		t.Errorf("confidence region %+v", conf.Region)
	}
	mv := Deliver(d, DeliverMeanVar, 0)
	if mv.Mean != 10 || math.Abs(mv.Variance-4) > 1e-12 {
		t.Error("meanvar wrong")
	}
	b := Deliver(d, DeliverBounds, 0)
	if b.Lo >= b.Hi || b.Lo > -5 {
		t.Errorf("bounds %g..%g", b.Lo, b.Hi)
	}
}
