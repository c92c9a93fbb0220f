package gen

import (
	"math"
	"math/rand"

	"repro/internal/series"
)

// GBM generates a geometric-Brownian-motion price path — the standard
// synthetic finance workload (the paper's intro motivates finance as a
// producing domain). mu and sigma are per-step drift and volatility.
func GBM(rng *rand.Rand, n int, s0, mu, sigma float64) series.Series {
	s := make(series.Series, n)
	price := s0
	for i := range s {
		price *= math.Exp(mu - sigma*sigma/2 + sigma*rng.NormFloat64())
		s[i] = price
	}
	return s
}

// FinanceConfig parameterizes the finance workload.
type FinanceConfig struct {
	N         int     // series count
	Len       int     // series length
	Sigma     float64 // per-step volatility (default 0.01)
	CrashProb float64 // probability a series contains a crash event
	Seed      int64
}

// Finance generates GBM price paths; a fraction carry a sudden crash
// (sharp drop followed by partial recovery), the "pattern of interest" for
// this domain. Returns the dataset and the IDs of crash series.
func Finance(cfg FinanceConfig) (*series.Dataset, []int) {
	rng := rand.New(rand.NewSource(cfg.Seed))
	if cfg.Sigma == 0 {
		cfg.Sigma = 0.01
	}
	d := series.NewDataset(cfg.Len)
	var crashes []int
	for i := 0; i < cfg.N; i++ {
		s := GBM(rng, cfg.Len, 100, 0, cfg.Sigma)
		if rng.Float64() < cfg.CrashProb {
			at := cfg.Len/4 + rng.Intn(max(1, cfg.Len/2)) // Len 1: the crash starts at 0
			drop := 0.3 + rng.Float64()*0.4               // 30-70% crash
			for j := at; j < cfg.Len; j++ {
				rec := math.Min(1, float64(j-at)/float64(cfg.Len-at)*0.5)
				s[j] *= (1 - drop) + drop*rec
			}
			id, _ := d.Append(s)
			crashes = append(crashes, id)
		} else {
			d.Append(s)
		}
	}
	return d, crashes
}

// ECG generates a synthetic electrocardiogram-like series: periodic PQRST
// complexes with beat-to-beat variability — the multimedia/medical stream
// workload. bpmJitter controls heart-rate variability.
func ECG(rng *rand.Rand, n int, beatLen int, noiseStd float64) series.Series {
	if beatLen <= 0 {
		beatLen = 64
	}
	s := make(series.Series, n)
	pos := 0
	for pos < n {
		bl := beatLen + rng.Intn(beatLen/4+1) - beatLen/8
		if bl < 8 {
			bl = 8
		}
		for j := 0; j < bl && pos < n; j++ {
			x := float64(j) / float64(bl)
			s[pos] = pqrst(x) + rng.NormFloat64()*noiseStd
			pos++
		}
	}
	return s
}

// pqrst is a stylized single heartbeat over x in [0,1): a small P wave, a
// sharp QRS spike, and a rounded T wave.
func pqrst(x float64) float64 {
	v := 0.0
	v += 0.15 * bump(x, 0.15, 0.05) // P
	v -= 0.1 * bump(x, 0.32, 0.02)  // Q
	v += 1.0 * bump(x, 0.36, 0.02)  // R
	v -= 0.2 * bump(x, 0.40, 0.02)  // S
	v += 0.3 * bump(x, 0.6, 0.08)   // T
	return v
}

func bump(x, c, w float64) float64 {
	d := (x - c) / w
	return math.Exp(-d * d)
}

// ECGDataset generates a collection of heartbeat windows; a fraction carry
// an arrhythmia (a skipped QRS complex), the anomaly to detect.
type ECGConfig struct {
	N          int
	Len        int
	ArrhythPct float64 // fraction with a skipped beat
	NoiseStd   float64 // default 0.05
	Seed       int64
}

// ECGDataset returns the dataset and IDs of arrhythmic windows.
func ECGDataset(cfg ECGConfig) (*series.Dataset, []int) {
	rng := rand.New(rand.NewSource(cfg.Seed))
	if cfg.NoiseStd == 0 {
		cfg.NoiseStd = 0.05
	}
	d := series.NewDataset(cfg.Len)
	var anomalies []int
	beat := cfg.Len / 4
	for i := 0; i < cfg.N; i++ {
		s := ECG(rng, cfg.Len, beat, cfg.NoiseStd)
		if rng.Float64() < cfg.ArrhythPct {
			// Flatten one beat: skipped QRS.
			at := rng.Intn(3) * beat
			for j := at; j < at+beat && j < cfg.Len; j++ {
				s[j] = rng.NormFloat64() * cfg.NoiseStd
			}
			id, _ := d.Append(s)
			anomalies = append(anomalies, id)
		} else {
			d.Append(s)
		}
	}
	return d, anomalies
}
