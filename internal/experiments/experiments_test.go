package experiments

import (
	"math"
	"testing"

	"repro/internal/core"
)

// TestTable1Shape checks the reproduction's load-bearing claims on a reduced
// configuration: moment volume scales as 1/N, detection quality decays
// monotonically (up to one noise flip), and fine averaging detects what
// coarse averaging misses.
func TestTable1Shape(t *testing.T) {
	cfg := DefaultTable1Config()
	cfg.Scans = 2
	cfg.AvgSizes = []int{40, 100, 1000}
	rows := RunTable1(cfg)
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Volume ratio tracks averaging ratio.
	if !(rows[0].MomentMB > rows[1].MomentMB && rows[1].MomentMB > rows[2].MomentMB) {
		t.Errorf("moment volume not decreasing: %+v", rows)
	}
	ratio := rows[0].MomentMB / rows[2].MomentMB
	if ratio < 20 || ratio > 30 {
		t.Errorf("40 vs 1000 volume ratio = %g, want ~25", ratio)
	}
	// Detection: fine averaging finds vortices, coarse finds none.
	if rows[0].Reported < 3 {
		t.Errorf("AvgN=40 reported %g tornados, want >= 3", rows[0].Reported)
	}
	if rows[2].Reported != 0 {
		t.Errorf("AvgN=1000 reported %g tornados, want 0", rows[2].Reported)
	}
	// False negatives complement reports against 4 truths.
	for _, r := range rows {
		if r.FalseNegatives < 0 || r.FalseNegatives > 4 {
			t.Errorf("FN out of range: %+v", r)
		}
	}
	// Transmission time decreases with volume.
	if rows[0].TransmitSec <= rows[2].TransmitSec {
		t.Error("transmission time should shrink with averaging")
	}
}

func TestTable1MomentVolumeMatchesPaperRow1(t *testing.T) {
	// The full default config reproduces the paper's 9.22 MB at AvgN=40
	// within a couple of percent (same gates, item size, and pulse budget).
	cfg := DefaultTable1Config()
	cfg.AvgSizes = []int{40}
	rows := RunTable1(cfg)
	if rows[0].MomentMB < 8.9 || rows[0].MomentMB > 9.5 {
		t.Errorf("moment MB at AvgN=40 = %g, want ~9.2", rows[0].MomentMB)
	}
}

func TestTable1UncertaintyGrowsWithInformationLoss(t *testing.T) {
	// The §4.4 point: aggressive averaging hides variability. The MA-CLT σ
	// of the *average* shrinks with N (more samples), which is exactly why
	// the system must carry it: downstream consumers can no longer see the
	// destroyed detail. Both behaviours are checked: σ decreases, and it
	// is populated at all.
	cfg := DefaultTable1Config()
	cfg.Scans = 1
	cfg.AvgSizes = []int{40, 500}
	cfg.WithUncertainty = true
	rows := RunTable1(cfg)
	if rows[0].MeanVelSigma <= 0 || rows[1].MeanVelSigma <= 0 {
		t.Fatalf("missing MA-CLT sigmas: %+v", rows)
	}
	if rows[1].MeanVelSigma >= rows[0].MeanVelSigma {
		t.Errorf("σ(500)=%g should be < σ(40)=%g", rows[1].MeanVelSigma, rows[0].MeanVelSigma)
	}
}

func TestIdentifyNoiseOrder(t *testing.T) {
	// The generator injects MA(2) velocity noise; the §4.4 identification
	// must recover order 2 from a quiet ray.
	if q := IdentifyNoiseOrder(5); q != 2 {
		t.Errorf("identified MA order %d, want 2", q)
	}
}

func TestTable2Ordering(t *testing.T) {
	cfg := DefaultTable2Config()
	cfg.Windows = 10
	rows := RunTable2(cfg)
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	byAlg := map[core.Strategy]Table2Row{}
	for _, r := range rows {
		byAlg[r.Algorithm] = r
	}
	hist := byAlg[core.HistogramSampling]
	inv := byAlg[core.CFInvert]
	approx := byAlg[core.CFApprox]
	// Paper's qualitative result: approx fastest, inversion slowest;
	// inversion exact (VD 0), histogram least accurate.
	if !(approx.ThroughputTPS > hist.ThroughputTPS && hist.ThroughputTPS > inv.ThroughputTPS) {
		t.Errorf("throughput ordering wrong: %+v", rows)
	}
	if inv.VarianceDistance > 1e-9 {
		t.Errorf("exact method VD = %g, want 0", inv.VarianceDistance)
	}
	if !(hist.VarianceDistance > approx.VarianceDistance) {
		t.Errorf("accuracy ordering wrong: hist %g vs approx %g",
			hist.VarianceDistance, approx.VarianceDistance)
	}
	// Histogram error lands in the paper's regime (~0.08).
	if hist.VarianceDistance < 0.02 || hist.VarianceDistance > 0.2 {
		t.Errorf("histogram VD = %g, want ~0.08", hist.VarianceDistance)
	}
}

func TestFigure3Shape(t *testing.T) {
	cfg := Figure3Config{
		ObjectCounts:   []int{100, 400},
		ParticleCounts: []int{50, 200},
		Seed:           5,
		HighNoise:      true,
	}
	pts := RunFigure3(cfg)
	if len(pts) != 4 {
		t.Fatalf("points = %d", len(pts))
	}
	get := func(obj, part int) Figure3Point {
		for _, p := range pts {
			if p.Objects == obj && p.Particles == part {
				return p
			}
		}
		t.Fatalf("missing point %d/%d", obj, part)
		return Figure3Point{}
	}
	// More particles: lower error, higher cost (both object counts).
	for _, obj := range []int{100, 400} {
		lo, hi := get(obj, 50), get(obj, 200)
		if hi.ErrFt >= lo.ErrFt {
			t.Errorf("objects=%d: 200 particles (%g ft) should beat 50 (%g ft)",
				obj, hi.ErrFt, lo.ErrFt)
		}
		if hi.MsPerEvent <= lo.MsPerEvent {
			t.Errorf("objects=%d: 200 particles should cost more per event", obj)
		}
	}
	// Errors are in a sane band (not collapsed, not divergent).
	for _, p := range pts {
		if p.ErrFt <= 0.1 || p.ErrFt > 30 {
			t.Errorf("error out of band: %+v", p)
		}
	}
}

func TestScalabilityLadder(t *testing.T) {
	cfg := ScalabilityConfig{
		JointObjects:   10,
		JointParticles: 20000,
		FactObjects:    2000,
		Particles:      30,
		Events:         60,
		Seed:           11,
	}
	// The ordering is asserted on wall-clock rates, which a busy machine
	// can depress for one variant mid-run; each variant keeps its best of
	// three runs, so only a slowdown lasting all three can fail the test.
	byName := map[string]ScalabilityRow{}
	for run := 0; run < 3; run++ {
		rows := RunScalability(cfg)
		if len(rows) != 4 {
			t.Fatalf("rows = %d", len(rows))
		}
		for _, r := range rows {
			if best, ok := byName[r.Variant]; !ok || r.EventsPerSec > best.EventsPerSec {
				byName[r.Variant] = r
			}
		}
	}
	joint := byName["joint (naive)"]
	fact := byName["factorized"]
	idx := byName["factorized+index"]
	// The load-bearing ordering: the index is the decisive optimization;
	// the indexed filter beats both the joint baseline and the unindexed
	// factorized filter by a wide margin while handling 200x the objects.
	if idx.EventsPerSec < 10*fact.EventsPerSec {
		t.Errorf("index should dominate: fact %g vs idx %g ev/s",
			fact.EventsPerSec, idx.EventsPerSec)
	}
	if idx.EventsPerSec < joint.EventsPerSec {
		t.Errorf("indexed factorized (%g ev/s at %d objects) should beat joint (%g ev/s at %d objects)",
			idx.EventsPerSec, idx.Objects, joint.EventsPerSec, joint.Objects)
	}
}

func TestTable2WorkloadDeterminism(t *testing.T) {
	a := Table2Workload(10, 3)
	b := Table2Workload(10, 3)
	for i := range a {
		if a[i].Mean() != b[i].Mean() {
			t.Fatal("workload not deterministic")
		}
	}
}

func TestCASAScenarioGeometry(t *testing.T) {
	atmos, site := CASAScenario()
	if len(atmos.Vortices) != 4 {
		t.Fatalf("vortices = %d", len(atmos.Vortices))
	}
	// Every vortex must lie inside the scanned sector and within gate
	// coverage, with couplet widths in the band the averaging sweep probes.
	s := site
	maxRange := 832 * 36.0
	for i, v := range atmos.Vortices {
		r := math.Hypot(v.X, v.Y)
		if r >= maxRange {
			t.Errorf("vortex %d beyond range: %g", i, r)
		}
		w := v.CoupletWidthDeg(r)
		if w < 0.3 || w > 1.2 {
			t.Errorf("vortex %d couplet width %g° outside calibration band", i, w)
		}
	}
	if s.SectorWidthDeg != 66 {
		t.Errorf("sector width %g", s.SectorWidthDeg)
	}
}

// TestQueriesModesAgree: every execution mode RunQueries reports — Push,
// the channel executor, and the sharded channel plan — must report the same
// alert count per query.
func TestQueriesModesAgree(t *testing.T) {
	rows := RunQueries(QueriesConfig{Objects: 40, Events: 400, Particles: 50, Buffer: 16, Shards: 2, Seed: 61})
	want := map[string]int{}
	modes := map[string]int{}
	for _, r := range rows {
		modes[r.Query]++
		t.Logf("%s %-7s %d alerts", r.Query, r.Mode, r.Alerts)
		ref, ok := want[r.Query]
		if !ok {
			want[r.Query] = r.Alerts
			continue
		}
		if r.Alerts != ref {
			t.Errorf("%s: mode %s reports %d alerts, the first mode reported %d", r.Query, r.Mode, r.Alerts, ref)
		}
	}
	for _, q := range []string{"Q1", "Q2"} {
		if modes[q] != 3 {
			t.Errorf("%s ran in %d modes, want 3", q, modes[q])
		}
		if want[q] == 0 {
			t.Errorf("%s raised no alerts; the comparison is vacuous", q)
		}
	}
}
