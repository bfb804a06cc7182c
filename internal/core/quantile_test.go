package core

import (
	"math"
	"testing"

	"repro/internal/dist"
	"repro/internal/stream"
)

// qaggOf builds a quantile aggregate and a contribution list from certain
// values with the given inclusion probabilities.
func qContribsOf(a *quantileAgg, vals, ps []float64) []qContrib {
	cs := make([]qContrib, len(vals))
	for i, v := range vals {
		cs[i] = qContrib{v: dist.Val{Mu: v}, p: ps[i]}
	}
	return cs
}

func TestPBTail(t *testing.T) {
	dp := make([]float64, 8)
	cases := []struct {
		ts   []float64
		k    int
		want float64
	}{
		{[]float64{1, 1, 1}, 2, 1},
		{[]float64{0, 0, 0}, 1, 0},
		{[]float64{0.5, 0.5}, 1, 0.75},
		{[]float64{0.5, 0.5}, 2, 0.25},
		{[]float64{0.2, 0.7, 0.4}, 1, 1 - 0.8*0.3*0.6},
	}
	for _, tc := range cases {
		if got := pbTail(dp[:tc.k+1], tc.ts, tc.k); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("pbTail(%v, %d) = %.17g, want %.17g", tc.ts, tc.k, got, tc.want)
		}
	}
}

// TestQuantileExactCertain: with certain values and unit inclusion, the
// exact path must reproduce the classical order statistic — the median of
// {1..5} is 3, and the result distribution concentrates there.
func TestQuantileExactCertain(t *testing.T) {
	a := NewQuantileAgg("v", 0.5, QuantileOptions{}).(*quantileAgg)
	cs := qContribsOf(a, []float64{5, 1, 4, 2, 3}, []float64{1, 1, 1, 1, 1})
	d := a.result(cs)
	if m := d.Mean(); math.Abs(m-3) > 0.05 {
		t.Errorf("median of {1..5} has mean %.4f, want ≈3", m)
	}
	if sd := d.Std(); sd > 0.05 {
		t.Errorf("certain median has sd %.4f, want ≈0 (grid resolution)", sd)
	}
}

// TestQuantileExactUncertainMembership: with every inclusion probability at
// 0.5 the median becomes a genuine random variable — its distribution must
// spread (positive variance, unlike the certain case) while the mean stays a
// plausible median of the surviving subset, near the population median.
func TestQuantileExactUncertainMembership(t *testing.T) {
	a := NewQuantileAgg("v", 0.5, QuantileOptions{}).(*quantileAgg)
	vals := []float64{10, 20, 30, 40, 50, 60}
	full := a.result(qContribsOf(a, vals, []float64{1, 1, 1, 1, 1, 1}))
	half := a.result(qContribsOf(a, vals, []float64{0.5, 0.5, 0.5, 0.5, 0.5, 0.5}))
	if m := full.Mean(); math.Abs(m-30) > 0.5 {
		t.Errorf("full-inclusion median mean %.3f, want ≈30 (the 3rd order statistic)", m)
	}
	if m := half.Mean(); m < 20 || m > 50 {
		t.Errorf("half-inclusion median mean %.3f outside the plausible range (20, 50)", m)
	}
	if half.Variance() <= full.Variance() {
		t.Errorf("uncertain membership variance %.4f not above certain %.4f",
			half.Variance(), full.Variance())
	}
}

// TestQuantileEstimatorMatchesExactRoughly: on Gaussian contributions the
// sketch estimator must land near the exact path's answer.
func TestQuantileEstimatorMatchesExactRoughly(t *testing.T) {
	exact := NewQuantileAgg("v", 0.5, QuantileOptions{}).(*quantileAgg)
	est := NewQuantileAgg("v", 0.5, QuantileOptions{MaxExact: 1}).(*quantileAgg)
	var csE, csS []qContrib
	for i := 0; i < 20; i++ {
		d := dist.NewNormal(float64(10+i), 2)
		csE = append(csE, qContrib{v: dist.ValOf(d), p: 1})
		csS = append(csS, qContrib{v: dist.ValOf(d), p: 1})
	}
	de, ds := exact.result(csE), est.result(csS)
	if math.Abs(de.Mean()-ds.Mean()) > 2 {
		t.Errorf("estimator mean %.3f far from exact %.3f", ds.Mean(), de.Mean())
	}
	if ds.Std() <= 0 {
		t.Errorf("estimator reported no uncertainty")
	}
}

// TestQuantileEdgeLevels: q = 0 and q = 1 select the extreme order
// statistics; q = 0 must not exceed q = 1.
func TestQuantileEdgeLevels(t *testing.T) {
	vals := []float64{3, 1, 4, 1, 5, 9, 2, 6}
	ps := []float64{1, 1, 1, 1, 1, 1, 1, 1}
	lo := NewQuantileAgg("v", 0, QuantileOptions{}).(*quantileAgg)
	hi := NewQuantileAgg("v", 1, QuantileOptions{}).(*quantileAgg)
	dl := lo.result(qContribsOf(lo, vals, ps))
	dh := hi.result(qContribsOf(hi, vals, ps))
	if math.Abs(dl.Mean()-1) > 0.05 {
		t.Errorf("q=0 mean %.4f, want ≈1 (the minimum)", dl.Mean())
	}
	if math.Abs(dh.Mean()-9) > 0.05 {
		t.Errorf("q=1 mean %.4f, want ≈9 (the maximum)", dh.Mean())
	}
}

// TestQuantileAccMatchesFinalize: the incremental accumulator and the
// partial-merge Finalize must produce bit-identical results on the same
// contributions — including after removals.
func TestQuantileAccMatchesFinalize(t *testing.T) {
	agg := NewQuantileAgg("v", 0.5, QuantileOptions{})
	acc := agg.NewAcc()
	us := make([]*UTuple, 8)
	handles := make([]uint64, 8)
	for i := range us {
		us[i] = NewUTuple(stream.Time(i), []string{"v"}, []dist.Dist{dist.NewNormal(float64(i*3), 1+float64(i%3))})
		handles[i] = acc.Add(us[i], 0.25+0.1*float64(i%5))
	}
	acc.Remove(handles[2])
	acc.Remove(handles[5])
	var cs []PartialContrib
	for i, u := range us {
		if i == 2 || i == 5 {
			continue
		}
		d, aux := agg.Prepare(u, 0.25+0.1*float64(i%5))
		cs = append(cs, PartialContrib{Seq: uint64(i), U: u, P: 0.25 + 0.1*float64(i%5), D: d, Aux: aux})
	}
	got := acc.Result(nil)
	want := agg.Finalize(cs)
	if len(got) != 1 || len(want) != 1 {
		t.Fatalf("row counts %d, %d", len(got), len(want))
	}
	if got[0].D.Mean() != want[0].D.Mean() || got[0].D.Variance() != want[0].D.Variance() {
		t.Errorf("acc %.17g/%.17g != finalize %.17g/%.17g",
			got[0].D.Mean(), got[0].D.Variance(), want[0].D.Mean(), want[0].D.Variance())
	}
}
