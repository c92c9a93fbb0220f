// Package gen produces the synthetic workloads used across the experiments,
// substituting for the paper's real datasets (astronomy sky-survey series
// and the IRIS seismic stream of the Coconut Palm demo, which README.md
// cites). All generators are deterministic given a seed.
package gen

import (
	"math"
	"math/rand"

	"repro/internal/series"
)

// RandomWalk returns a standard random-walk series of length n — the
// canonical synthetic data series workload in the indexing literature.
func RandomWalk(rng *rand.Rand, n int) series.Series {
	s := make(series.Series, n)
	v := 0.0
	for i := range s {
		v += rng.NormFloat64()
		s[i] = v
	}
	return s
}

// Noise returns i.i.d. Gaussian noise with the given standard deviation.
func Noise(rng *rand.Rand, n int, std float64) series.Series {
	s := make(series.Series, n)
	for i := range s {
		s[i] = rng.NormFloat64() * std
	}
	return s
}

// Add returns a + b element-wise; lengths must match.
func Add(a, b series.Series) series.Series {
	out := make(series.Series, len(a))
	for i := range a {
		out[i] = a[i] + b[i]
	}
	return out
}

// Template identifies the shapes injected into the astronomy and seismic
// workloads, standing in for the paper's "known patterns of interest".
type Template int

// Known templates.
const (
	// TemplateBinaryStar is a periodic dimming curve, the light curve of an
	// eclipsing binary star.
	TemplateBinaryStar Template = iota
	// TemplateSupernova is a fast-rise, exponential-decay transient.
	TemplateSupernova
	// TemplateEarthquake is a P/S-wave envelope burst over microtremor.
	TemplateEarthquake
)

// String names the template.
func (t Template) String() string {
	switch t {
	case TemplateBinaryStar:
		return "binary-star"
	case TemplateSupernova:
		return "supernova"
	case TemplateEarthquake:
		return "earthquake"
	}
	return "unknown"
}

// Shape returns the canonical (noise-free) series of length n for the
// template, with phase controlling periodic offset / event onset in [0,1).
func (t Template) Shape(n int, phase float64) series.Series {
	s := make(series.Series, n)
	switch t {
	case TemplateBinaryStar:
		// Two eclipses per period: primary deep, secondary shallow.
		period := float64(n) / 2.0
		for i := range s {
			x := math.Mod(float64(i)+phase*period, period) / period
			s[i] = 1.0
			if d := eclipse(x, 0.25, 0.08); d > 0 {
				s[i] -= 0.8 * d
			}
			if d := eclipse(x, 0.75, 0.08); d > 0 {
				s[i] -= 0.3 * d
			}
		}
	case TemplateSupernova:
		onset := int(phase * float64(n) * 0.5)
		rise := float64(n) / 16.0
		decay := float64(n) / 4.0
		for i := range s {
			dt := float64(i - onset)
			if dt < 0 {
				s[i] = 0
			} else if dt < rise {
				s[i] = dt / rise
			} else {
				s[i] = math.Exp(-(dt - rise) / decay)
			}
		}
	case TemplateEarthquake:
		onset := int(phase * float64(n) * 0.5)
		for i := range s {
			dt := float64(i - onset)
			if dt < 0 {
				continue
			}
			// P-wave: fast oscillation, quick decay; S-wave arrives later,
			// larger and slower.
			p := math.Exp(-dt/(float64(n)/20)) * math.Sin(dt*0.9)
			sdt := dt - float64(n)/10
			var sw float64
			if sdt > 0 {
				sw = 2.5 * math.Exp(-sdt/(float64(n)/6)) * math.Sin(sdt*0.45)
			}
			s[i] = p + sw
		}
	}
	return s
}

// eclipse is a smooth dip of half-width w centered at c (both in [0,1]).
func eclipse(x, c, w float64) float64 {
	d := math.Abs(x-c) / w
	if d >= 1 {
		return 0
	}
	return 0.5 * (1 + math.Cos(math.Pi*d))
}

// Injection records where a template instance was planted, forming the
// ground truth for recall checks.
type Injection struct {
	ID       int // series ID in the dataset
	Template Template
}

// AstronomyConfig parameterizes the Scenario 1 workload.
type AstronomyConfig struct {
	N         int     // total series count
	Len       int     // series length
	FracEvent float64 // fraction of series carrying an injected template
	NoiseStd  float64 // observation noise added to templates
	Seed      int64
}

// Astronomy generates a static collection of light curves: mostly random
// walks, with a fraction carrying binary-star or supernova templates. It
// returns the dataset and the injection ground truth.
func Astronomy(cfg AstronomyConfig) (*series.Dataset, []Injection) {
	rng := rand.New(rand.NewSource(cfg.Seed))
	if cfg.NoiseStd == 0 {
		cfg.NoiseStd = 0.1
	}
	d := series.NewDataset(cfg.Len)
	var injected []Injection
	for i := 0; i < cfg.N; i++ {
		if rng.Float64() < cfg.FracEvent {
			tpl := TemplateBinaryStar
			if rng.Intn(2) == 1 {
				tpl = TemplateSupernova
			}
			s := Add(tpl.Shape(cfg.Len, rng.Float64()), Noise(rng, cfg.Len, cfg.NoiseStd))
			id, _ := d.Append(s)
			injected = append(injected, Injection{ID: id, Template: tpl})
		} else {
			s := RandomWalk(rng, cfg.Len)
			d.Append(s)
		}
	}
	return d, injected
}

// SeismicConfig parameterizes the Scenario 2 streaming workload.
type SeismicConfig struct {
	Batches    int     // number of arriving batches
	BatchSize  int     // series per batch
	Len        int     // series length
	QuakeProb  float64 // probability a series carries an earthquake burst
	NoiseStd   float64 // microtremor background level
	TSPerBatch int64   // timestamp increment per batch (default 1)
	Seed       int64
}

// Batch is one arrival of streaming data series, all sharing a timestamp.
type Batch struct {
	TS     int64
	Series []series.Series
	Quakes []int // indexes within Series that carry the earthquake template
}

// Seismic generates the streaming workload: batches of mostly-noise series
// with Poisson-like earthquake bursts, timestamped in arrival order.
func Seismic(cfg SeismicConfig) []Batch {
	rng := rand.New(rand.NewSource(cfg.Seed))
	if cfg.NoiseStd == 0 {
		cfg.NoiseStd = 0.3
	}
	inc := cfg.TSPerBatch
	if inc == 0 {
		inc = 1
	}
	batches := make([]Batch, cfg.Batches)
	for b := range batches {
		batch := Batch{TS: int64(b) * inc}
		for i := 0; i < cfg.BatchSize; i++ {
			if rng.Float64() < cfg.QuakeProb {
				s := Add(TemplateEarthquake.Shape(cfg.Len, rng.Float64()), Noise(rng, cfg.Len, cfg.NoiseStd))
				batch.Quakes = append(batch.Quakes, i)
				batch.Series = append(batch.Series, s)
			} else {
				batch.Series = append(batch.Series, Noise(rng, cfg.Len, 1.0))
			}
		}
		batches[b] = batch
	}
	return batches
}

// Queries derives a query workload from a dataset: each query is a stored
// series perturbed with Gaussian noise, so every query has a known close
// answer (approximately itself). Returns the queries and the IDs of the
// series they were derived from.
func Queries(d *series.Dataset, count int, noiseStd float64, seed int64) ([]series.Series, []int) {
	rng := rand.New(rand.NewSource(seed))
	qs := make([]series.Series, count)
	ids := make([]int, count)
	for i := range qs {
		id := rng.Intn(d.Count())
		base, _ := d.Get(id)
		qs[i] = Add(base, Noise(rng, d.Len, noiseStd))
		ids[i] = id
	}
	return qs, ids
}

// TemplateQueries builds noisy instances of a template to use as query
// targets (the demo's "draw a pattern and search" interaction).
func TemplateQueries(tpl Template, n, count int, noiseStd float64, seed int64) []series.Series {
	rng := rand.New(rand.NewSource(seed))
	out := make([]series.Series, count)
	for i := range out {
		out[i] = Add(tpl.Shape(n, rng.Float64()), Noise(rng, n, noiseStd))
	}
	return out
}
