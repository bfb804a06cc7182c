// Package repro's root benchmark suite regenerates the performance side of
// the paper's tables and figures (see DESIGN.md §7 for the experiment
// index and EXPERIMENTS.md for paper-vs-measured numbers):
//
//	BenchmarkTable1AveragingSweep  — Table 1 (moment generation + detection per size)
//	BenchmarkTable2                — Table 2 (the three aggregation algorithms)
//	BenchmarkFigure3               — Figure 3(a)/(b) (per-event inference cost)
//	BenchmarkScalabilityAblation   — §4.1 joint vs factorized/index/compression
//	BenchmarkAggregationStrategies — §5.1 strategy ablation (incl. [9]'s n−1 integrals)
//	BenchmarkTupleApproximation    — §4.3 Gaussian vs AIC-mixture tuple compression
//	BenchmarkCorrelatedAggregation — §5.1 MA-CLT vs Monte Carlo on correlated series
//	BenchmarkAdaptiveAveraging     — the radar extension policy's overhead
//	BenchmarkCFInversionGrid       — the exact method's FFT grid-size knob
//	BenchmarkJoinEqualProb         — Q2's loc_equals kernel
//	BenchmarkFinalSumLineage       — §5.2 lineage-aware final operator
//
// Absolute numbers are machine-dependent; the shape (who wins, by what
// factor) is the reproduction target. The engine, wire and cluster paths
// are measured by the repository benchmark in bench/ (bash bench/run.sh),
// which reads the same ledger rows on every run; their allocation counts
// are pinned by AllocsPerRun tests beside the code (internal/uop's
// TestQ1EngineAllocs and TestCheckpointAllocs among them).
package repro_test

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/detect"
	"repro/internal/dist"
	"repro/internal/experiments"
	"repro/internal/pfilter"
	"repro/internal/radar"
	"repro/internal/rfid"
	"repro/internal/rng"
	"repro/internal/timeseries"
)

// BenchmarkTable1AveragingSweep measures the moment-generation + detection
// cost per sector scan at each Table 1 averaging size (raw pulse generation
// excluded: pulses are pre-generated once, as the experiment harness does
// with Tee).
func BenchmarkTable1AveragingSweep(b *testing.B) {
	atmos, site := experiments.CASAScenario()
	// Pre-generate one sector scan of pulses.
	var pulses []*radar.Pulse
	site.ScanStream(atmos, radar.NoiseConfig{Seed: 42}, 0, func(p *radar.Pulse) {
		cp := &radar.Pulse{T: p.T, AzRad: p.AzRad, Items: append([]radar.PulseItem(nil), p.Items...)}
		pulses = append(pulses, cp)
	})
	for _, avgN := range []int{40, 100, 500, 1000} {
		b.Run(fmt.Sprintf("avg=%d", avgN), func(b *testing.B) {
			cfg := experiments.DefaultTable1Config()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				avg := radar.NewAverager(site, radar.AveragerConfig{AvgN: avgN})
				for _, p := range pulses {
					avg.AddPulse(p)
				}
				scan := avg.Finish(0)
				res := detect.Detect(scan, cfg.Detect)
				_ = res.Detections
			}
			b.ReportMetric(float64(len(pulses)*832*b.N)/b.Elapsed().Seconds(), "items/s")
		})
	}
}

// BenchmarkTable2 times one 100-tuple window aggregation per iteration for
// each Table 2 algorithm; tuples/s here maps directly onto the paper's
// throughput column.
func BenchmarkTable2(b *testing.B) {
	window := experiments.Table2Workload(100, 7)
	for _, alg := range []core.Strategy{core.HistogramSampling, core.CFInvert, core.CFApprox} {
		b.Run(alg.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_ = core.Sum(window, alg, core.AggOptions{Seed: 8})
			}
			b.ReportMetric(float64(100*b.N)/b.Elapsed().Seconds(), "tuples/s")
		})
	}
}

// BenchmarkFigure3 measures per-event inference cost across the Figure 3
// grid (the 3(b) axis; accuracy is the harness/CLI's job since it needs
// whole traces).
func BenchmarkFigure3(b *testing.B) {
	for _, nObj := range []int{100, 1000, 10000} {
		w := rfid.NewWarehouse(rfid.WarehouseConfig{NumObjects: nObj, Seed: 5, MoveProb: -1})
		reader := rfid.Reader{}
		trace := rfid.GenerateTrace(w, reader, rfid.TraceConfig{Events: 512, Seed: 6})
		for _, nPart := range []int{50, 100, 200} {
			b.Run(fmt.Sprintf("objects=%d/particles=%d", nObj, nPart), func(b *testing.B) {
				tx := rfid.NewTransformer(w, rfid.SensingConfig{}, rfid.TransformerConfig{
					Particles: nPart, UseIndex: true, NegativeEvidence: true, Seed: 7,
				})
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					tx.Process(trace.Events[i%len(trace.Events)])
				}
			})
		}
	}
}

// BenchmarkScalabilityAblation is the §4.1 optimization ladder: cost of one
// reader event under each filter configuration.
func BenchmarkScalabilityAblation(b *testing.B) {
	sensing := rfid.SensingConfig{}

	b.Run("joint-20objects", func(b *testing.B) {
		w := rfid.NewWarehouse(rfid.WarehouseConfig{NumObjects: 20, Seed: 11, MoveProb: -1})
		trace := rfid.GenerateTrace(w, rfid.Reader{}, rfid.TraceConfig{Events: 64, Seed: 12})
		g := rng.New(13)
		joint := pfilter.NewJoint(100000, sensing.InferenceModel(), staticDynBench{}, g)
		for _, o := range w.Objects {
			x, y := o.Pos.X, o.Pos.Y
			joint.Track(o.ID, func(g *rng.RNG) pfilter.Point {
				return pfilter.Point{X: x + g.Normal(0, 5), Y: y + g.Normal(0, 5)}
			})
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ev := trace.Events[i%len(trace.Events)]
			joint.Process(pfilter.ScanEvent{Reader: ev.Reader, Observed: ev.ObservedObjects})
		}
	})

	for _, v := range []struct {
		name            string
		index, compress bool
	}{
		{"factorized-20000objects", false, false},
		{"factorized-index-20000objects", true, false},
		{"factorized-index-compression-20000objects", true, true},
	} {
		b.Run(v.name, func(b *testing.B) {
			w := rfid.NewWarehouse(rfid.WarehouseConfig{NumObjects: 20000, Seed: 11, MoveProb: -1})
			trace := rfid.GenerateTrace(w, rfid.Reader{}, rfid.TraceConfig{Events: 256, Seed: 12})
			cfg := rfid.TransformerConfig{
				Particles: 50, UseIndex: v.index, NegativeEvidence: true, Seed: 13,
			}
			if v.compress {
				cfg.Compression = pfilter.CompressOptions{SpreadThreshold: 1.0, MinParticles: 8}
			}
			tx := rfid.NewTransformer(w, sensing, cfg)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tx.Process(trace.Events[i%len(trace.Events)])
			}
		})
	}
}

type staticDynBench struct{}

func (staticDynBench) Step(cur pfilter.Point, _ float64, _ *rng.RNG) pfilter.Point { return cur }

// BenchmarkAggregationStrategies is the §5.1 strategy ablation over one
// window, including the comparators the paper rules out (the n−1 pairwise
// integrals of [9]) and the ones it recommends (CLT, GMM CF fit).
func BenchmarkAggregationStrategies(b *testing.B) {
	window := experiments.Table2Workload(100, 9)
	small := window[:10]
	for _, tc := range []struct {
		name  string
		strat core.Strategy
		in    []dist.Dist
	}{
		{"CFInvert-100", core.CFInvert, window},
		{"CFApprox-100", core.CFApprox, window},
		{"CLT-100", core.CLT, window},
		{"Histogram-100", core.HistogramSampling, window},
		{"MonteCarlo-100", core.MonteCarlo, window},
		{"CFApproxGMM-100", core.CFApproxGMM, window},
		// The n−1-integral baseline of [9] runs on a tenth of the window:
		// its per-tuple cost (~0.2 ms at a coarse 256-point grid) is ~5000×
		// the CF approximation's, and unlike the single-inversion exact
		// method its error compounds across the n−1 numeric convolutions.
		{"Pairwise-10", core.PairwiseIntegrals, small},
	} {
		b.Run(tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_ = core.Sum(tc.in, tc.strat, core.AggOptions{Seed: 10})
			}
		})
	}
}

// BenchmarkTupleApproximation measures §4.3's tuple-level compression: the
// closed-form KL Gaussian fit vs the AIC-selected mixture fit on a bimodal
// particle cloud (the moved-object case).
func BenchmarkTupleApproximation(b *testing.B) {
	g := rng.New(14)
	bimodal := dist.NewGaussianMixture([]float64{0.5, 0.5}, []float64{0, 10}, []float64{1, 1})
	xs := dist.SampleN(bimodal, 200, g)
	ws := make([]float64, len(xs))
	for i := range ws {
		ws[i] = 0.5 + g.Float64()
	}
	b.Run("FitNormal", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			e := dist.NewEmpirical(xs, ws)
			_ = dist.FitNormal(e)
		}
	})
	b.Run("SelectMixtureAIC", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			e := dist.NewEmpirical(xs, ws)
			_, _ = dist.SelectMixture(e, 3, dist.AIC, dist.FitMixtureOptions{Seed: 15})
		}
	})
}

// BenchmarkCorrelatedAggregation compares §5.1's two routes for correlated
// (time-series) inputs: the one-scan MA-CLT versus joint Monte Carlo.
func BenchmarkCorrelatedAggregation(b *testing.B) {
	g := rng.New(16)
	series := timeseries.MA{C: 5, Theta: []float64{0.6, 0.3}, Sigma: 2}.Simulate(1000, g)
	b.Run("MA-CLT", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = core.MeanCorrelatedMA(series, 2)
		}
	})
	b.Run("MA-CLT-auto-order", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_, _ = timeseries.MeanCLTAuto(series, 8)
		}
	})
	b.Run("MonteCarlo-refit", func(b *testing.B) {
		model, err := timeseries.FitMA(series, 2)
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < b.N; i++ {
			// Joint MC: simulate the fitted model and average, 500 draws.
			var s, s2 float64
			for k := 0; k < 500; k++ {
				xs := model.Simulate(len(series), g)
				m := timeseries.Mean(xs)
				s += m
				s2 += m * m
			}
			_ = s2/500 - (s/500)*(s/500)
		}
	})
}

// BenchmarkAdaptiveAveraging measures the extension policy's overhead on a
// fine scan: activity classification + quiet-run re-aggregation.
func BenchmarkAdaptiveAveraging(b *testing.B) {
	atmos, site := experiments.CASAScenario()
	fine := radar.GenerateMomentScan(atmos, site, radar.NoiseConfig{Seed: 42}, 0,
		radar.AveragerConfig{AvgN: 40})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = radar.AdaptiveAverage(fine, radar.AdaptiveConfig{FineN: 40, CoarseN: 1000})
	}
}

// BenchmarkCFInversionGrid shows the exact method's cost knob: FFT grid
// size versus latency (accuracy ablation lives in EXPERIMENTS.md).
func BenchmarkCFInversionGrid(b *testing.B) {
	window := experiments.Table2Workload(100, 17)
	for _, gridN := range []int{512, 2048, 8192} {
		b.Run(fmt.Sprintf("grid=%d", gridN), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_ = core.Sum(window, core.CFInvert, core.AggOptions{GridN: gridN})
			}
		})
	}
}

// BenchmarkJoinEqualProb measures Q2's loc_equals probability kernel.
func BenchmarkJoinEqualProb(b *testing.B) {
	x := dist.NewNormal(0, 1)
	y := dist.NewNormal(0.5, 1.5)
	b.Run("dist-dist", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = core.EqualProb(x, y, 0.8)
		}
	})
	b.Run("dist-point", func(b *testing.B) {
		p := dist.PointMass{V: 0.4}
		for i := 0; i < b.N; i++ {
			_ = core.EqualProb(x, p, 0.8)
		}
	})
}

// BenchmarkFinalSumLineage measures the §5.2 lineage-aware final operator on
// windows that are mostly independent with one correlated clique.
func BenchmarkFinalSumLineage(b *testing.B) {
	mk := func() ([]*core.UTuple, func()) {
		var tuples []*core.UTuple
		for i := 0; i < 30; i++ {
			tuples = append(tuples, core.NewUTuple(0, []string{"v"}, []dist.Dist{dist.NewNormal(float64(i), 1)}))
		}
		// Correlated pair sharing a base tuple.
		base := core.NewUTuple(0, []string{"v"}, []dist.Dist{dist.NewNormal(5, 1)})
		t1 := core.Derive(0, []string{"v"}, []dist.Dist{dist.NewNormal(5, 1)}, base)
		t2 := core.Derive(0, []string{"v"}, []dist.Dist{dist.NewNormal(5, 1)}, base)
		tuples = append(tuples, t1, t2)
		return tuples, func() {}
	}
	tuples, _ := mk()
	b.Run("FinalSum", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = core.FinalSum(tuples, "v", nil, core.FinalSumOptions{Strategy: core.CFApprox, JointSamples: 500})
		}
	})
	b.Run("NaiveIndependentSum", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = core.SumTuples(tuples, "v", core.CFApprox, core.AggOptions{})
		}
	})
}
