// Package acoustic provides the acoustic substrate the paper runs on a GPU:
// synthetic feature-frame generation and GMM / DNN / RNN scorers that turn
// frames into per-senone log-likelihoods ("acoustic scores"). The real
// models are trained on hundreds of hours of audio; here frames are emitted
// from per-senone Gaussian templates so that scores are discriminative, the
// word error rate is non-trivial, and every decoder code path (including
// pruning of confusable hypotheses) is exercised.
package acoustic

import (
	"fmt"
	"math/rand"
)

// SenoneModel holds one feature-space template per senone. Senone IDs are
// 1-based (0 is the WFST epsilon label), so Means[0] is unused.
type SenoneModel struct {
	Dim        int
	NumSenones int
	// Means[s] is the feature-space centre of senone s, s in 1..NumSenones.
	Means [][]float32
	// Sigma is the isotropic standard deviation used both for synthesis
	// and as the scorers' model variance.
	Sigma float32
}

// NewSenoneModel samples senone templates. spread controls how far apart
// the templates sit relative to Sigma: smaller spread means more confusable
// senones and a higher WER.
func NewSenoneModel(rng *rand.Rand, numSenones, dim int, spread, sigma float32) (*SenoneModel, error) {
	if numSenones < 1 || dim < 1 {
		return nil, fmt.Errorf("acoustic: bad model shape senones=%d dim=%d", numSenones, dim)
	}
	if sigma <= 0 || spread <= 0 {
		return nil, fmt.Errorf("acoustic: sigma and spread must be positive")
	}
	m := &SenoneModel{Dim: dim, NumSenones: numSenones, Sigma: sigma}
	m.Means = make([][]float32, numSenones+1)
	for s := 1; s <= numSenones; s++ {
		v := make([]float32, dim)
		for d := range v {
			v[d] = (rng.Float32()*2 - 1) * spread
		}
		m.Means[s] = v
	}
	return m, nil
}

// SynthesisOptions controls frame generation.
type SynthesisOptions struct {
	// MeanFrames is the expected number of frames emitted per senone
	// occupancy (geometric duration model, minimum 1). Default 2.5.
	MeanFrames float64
	// NoiseStd scales the additive Gaussian noise relative to the model's
	// Sigma. 1.0 means frames are exactly model-distributed; larger values
	// raise the WER. Default 1.0.
	NoiseStd float64
}

func (o SynthesisOptions) withDefaults() SynthesisOptions {
	if o.MeanFrames == 0 {
		o.MeanFrames = 2.5
	}
	if o.NoiseStd == 0 {
		o.NoiseStd = 1.0
	}
	return o
}

// Synthesize emits a frame sequence for a senone occupancy sequence: each
// senone holds for a geometric number of frames (mean MeanFrames), emitting
// its template plus Gaussian noise. It returns the frames and the aligned
// senone label per frame.
func (m *SenoneModel) Synthesize(rng *rand.Rand, senones []int32, opts SynthesisOptions) ([][]float32, []int32) {
	opts = opts.withDefaults()
	pStay := 1 - 1/opts.MeanFrames
	if pStay < 0 {
		pStay = 0
	}
	var frames [][]float32
	var align []int32
	std := float64(m.Sigma) * opts.NoiseStd
	for _, s := range senones {
		n := 1
		for rng.Float64() < pStay {
			n++
		}
		for i := 0; i < n; i++ {
			f := make([]float32, m.Dim)
			mu := m.Means[s]
			for d := 0; d < m.Dim; d++ {
				f[d] = mu[d] + float32(rng.NormFloat64()*std)
			}
			frames = append(frames, f)
			align = append(align, s)
		}
	}
	return frames, align
}
