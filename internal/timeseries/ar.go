package timeseries

import "repro/internal/rng"

// ARMA couples an autoregressive and an MA part for simulation-side
// workloads (the radar noise generator); fitting in the stream path stays
// MA-only per §4.4.
type ARMA struct {
	C     float64
	Phi   []float64
	Theta []float64
	Sigma float64
}

// Simulate generates n observations with warm-up.
func (m ARMA) Simulate(n int, g *rng.RNG) []float64 {
	p, q := len(m.Phi), len(m.Theta)
	warm := 100 + 10*(p+q)
	es := make([]float64, n+warm)
	for i := range es {
		es[i] = g.Normal(0, m.Sigma)
	}
	buf := make([]float64, n+warm)
	for t := 0; t < len(buf); t++ {
		v := m.C + es[t]
		for j, b := range m.Theta {
			if t-1-j >= 0 {
				v += b * es[t-1-j]
			}
		}
		for j, a := range m.Phi {
			if t-1-j >= 0 {
				v += a * buf[t-1-j]
			}
		}
		buf[t] = v
	}
	return buf[warm:]
}
