package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
)

func printMetrics(ms []metric) {
	for _, m := range ms {
		fmt.Printf("  %-40s %16.6g %s\n", m.name, m.value, m.unit)
	}
}

func printResult(res *result, layers bool) {
	printMetrics(res.endToEnd)
	if layers {
		printMetrics(res.perLayer)
	}
	fmt.Printf("  %-40s %16d of %d\n", "failed", res.failed, res.attempted)
	for _, n := range res.notes {
		fmt.Println("  note:", n)
	}
}

// bound is one end-to-end metric's direction and allowed worsening, as
// BENCHMARK.json fixes them.
type bound struct {
	Name   string  `json:"name"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readBounds(path string) ([]bound, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f struct {
		EndToEnd []bound `json:"end_to_end"`
	}
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return f.EndToEnd, nil
}

// printSpreads prints, per workload and end-to-end metric, min / median /
// max over the repetitions and the relative spread — the distance between
// the first and third quartile as a share of the median, the driver's own
// acceptance statistic — against the metric's bound. It reports whether
// every spread stayed within its bound; setup_s is shown but, as in the
// driver, not judged.
func printSpreads(runs [][]*result, bounds []bound) bool {
	ok := true
	fmt.Printf("\n== spread over %d runs (IQR ÷ median, vs bound)\n", len(runs))
	for wi, first := range runs[0] {
		fmt.Printf("%s\n", first.workload)
		for mi, m := range first.endToEnd {
			vals := make([]float64, len(runs))
			for ri, set := range runs {
				vals[ri] = set[wi].endToEnd[mi].value
			}
			q1, med, q3 := quartiles(vals)
			spread := math.Abs((q3 - q1) / med)
			limit := math.NaN()
			for _, b := range bounds {
				if b.Name == m.name {
					limit = b.Bound
				}
			}
			verdict := "ok"
			switch {
			case m.name == "setup_s":
				verdict = "not judged"
			case !(spread <= limit):
				verdict = "EXCEEDS BOUND"
				ok = false
			}
			fmt.Printf("  %-20s min %12.6g  median %12.6g  max %12.6g  spread %6.2f%%  bound %5.1f%%  %s\n",
				m.name, vals[0], med, vals[len(vals)-1], 100*spread, 100*limit, verdict)
		}
	}
	return ok
}
