// Package dataset synthesizes the deterministic classification workload that
// stands in for ImageNet (see DESIGN.md §1). Quantization and fault effects
// depend on weight and activation *distributions*, not on natural images, so
// the substitute only needs to be (a) rich enough that real models must be
// trained to solve it and (b) exactly reproducible. Each class is defined by
// a structured prototype — an oriented sinusoidal grating plus a localized
// blob, both class-specific — and samples are noisy, amplitude-jittered
// draws around the prototype.
package dataset

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"

	"goldeneye/internal/rng"
	"goldeneye/internal/tensor"
)

// Config parameterizes a synthetic dataset.
type Config struct {
	Classes  int
	Channels int
	Height   int
	Width    int

	TrainPerClass int
	ValPerClass   int

	// NoiseStd is the additive Gaussian noise standard deviation.
	NoiseStd float64

	// Seed fully determines the dataset contents.
	Seed uint64
}

// Default returns the configuration used throughout the experiments:
// 10 classes of 3×16×16 images, 100 train / 30 val per class.
func Default() Config {
	return Config{
		Classes:       10,
		Channels:      3,
		Height:        16,
		Width:         16,
		TrainPerClass: 100,
		ValPerClass:   30,
		NoiseStd:      0.9,
		Seed:          2022,
	}
}

// Dataset is a materialized train/validation split.
type Dataset struct {
	Config Config

	TrainX *tensor.Tensor // (Ntrain, C, H, W)
	TrainY []int
	ValX   *tensor.Tensor // (Nval, C, H, W)
	ValY   []int
}

// classProto holds the generative parameters of one class.
type classProto struct {
	freqX, freqY float64 // grating frequency per channel-independent pattern
	phase        float64
	blobX, blobY float64 // blob center in [0,1)
	blobAmp      float64
	chanGain     []float64 // per-channel gain

	// blob is the class's blob over the H×W grid, row-major: it depends on
	// neither the channel nor the sample, so it is evaluated once.
	blob []float64
}

// New synthesizes a dataset from cfg. The same cfg always produces the same
// tensors, bit for bit.
func New(cfg Config) *Dataset {
	if cfg.Classes < 2 || cfg.Channels < 1 || cfg.Height < 4 || cfg.Width < 4 {
		panic(fmt.Sprintf("dataset: implausible config %+v", cfg))
	}
	r := rng.New(cfg.Seed)
	protos := make([]classProto, cfg.Classes)
	for k := range protos {
		protos[k] = classProto{
			freqX:   1 + float64(r.Float64()*2.2),
			freqY:   1 + float64(r.Float64()*2.2),
			phase:   float64(r.Float64()) * 2 * math.Pi,
			blobX:   0.15 + float64(0.7*r.Float64()),
			blobY:   0.15 + float64(0.7*r.Float64()),
			blobAmp: 0.8 + float64(0.8*r.Float64()),
			chanGain: func() []float64 {
				g := make([]float64, cfg.Channels)
				for c := range g {
					g[c] = 0.5 + float64(r.Float64())
				}
				return g
			}(),
		}
		p := &protos[k]
		p.blob = make([]float64, 0, cfg.Height*cfg.Width)
		for i := 0; i < cfg.Height; i++ {
			fy := float64(i) / float64(cfg.Height)
			for j := 0; j < cfg.Width; j++ {
				fx := float64(j) / float64(cfg.Width)
				dx, dy := fx-p.blobX, fy-p.blobY
				p.blob = append(p.blob, p.blobAmp*math.Exp(-(float64(dx*dx)+float64(dy*dy))/0.02))
			}
		}
	}

	ds := &Dataset{Config: cfg}
	ds.TrainX, ds.TrainY = synthesize(cfg, protos, cfg.TrainPerClass, r.Split())
	ds.ValX, ds.ValY = synthesize(cfg, protos, cfg.ValPerClass, r.Split())
	return ds
}

func synthesize(cfg Config, protos []classProto, perClass int, r *rng.RNG) (*tensor.Tensor, []int) {
	n := cfg.Classes * perClass
	x := tensor.New(n, cfg.Channels, cfg.Height, cfg.Width)
	y := make([]int, n)
	grating := make([]float64, cfg.Height*cfg.Width)
	plane := cfg.Channels * len(grating)
	// Interleave classes so any contiguous batch is class-balanced.
	for i := 0; i < n; i++ {
		k := i % cfg.Classes
		y[i] = k
		renderSample(cfg, protos[k], x.Data()[i*plane:(i+1)*plane], grating, r)
	}
	return x, y
}

// renderSample writes one (C, H, W) sample into dst. The grating does not
// depend on the channel, so it is evaluated once per sample into grating;
// the noise is drawn per pixel, channel by channel.
func renderSample(cfg Config, p classProto, dst []float32, grating []float64, r *rng.RNG) {
	amp := 0.7 + float64(0.6*r.Float64()) // per-sample amplitude jitter
	phase := p.phase + float64((float64(r.Float64())-0.5)*0.6)
	for i := 0; i < cfg.Height; i++ {
		fy := float64(i) / float64(cfg.Height)
		for j := 0; j < cfg.Width; j++ {
			fx := float64(j) / float64(cfg.Width)
			grating[i*cfg.Width+j] = math.Sin(float64(2*math.Pi*(float64(p.freqX*fx)+float64(p.freqY*fy))) + phase)
		}
	}
	for c := 0; c < cfg.Channels; c++ {
		gain := p.chanGain[c] * amp
		out := dst[c*len(grating) : (c+1)*len(grating)]
		for k, g := range grating {
			out[k] = float32(float64(gain*g) + p.blob[k] + float64(cfg.NoiseStd*r.NormFloat64()))
		}
	}
}

// TrainLen returns the number of training samples.
func (d *Dataset) TrainLen() int { return len(d.TrainY) }

// ValLen returns the number of validation samples.
func (d *Dataset) ValLen() int { return len(d.ValY) }

// TrainBatch returns training samples [lo, hi) as a batch tensor and label
// slice.
func (d *Dataset) TrainBatch(lo, hi int) (*tensor.Tensor, []int) {
	return d.TrainX.Slice(lo, hi), d.TrainY[lo:hi]
}

// ValBatch returns validation samples [lo, hi).
func (d *Dataset) ValBatch(lo, hi int) (*tensor.Tensor, []int) {
	return d.ValX.Slice(lo, hi), d.ValY[lo:hi]
}

// ShuffledOrder returns a deterministic permutation of the training indices
// for the given epoch.
func (d *Dataset) ShuffledOrder(epoch int) []int {
	r := rng.New(d.Config.Seed ^ uint64(epoch)*0x9e3779b97f4a7c15)
	return r.Perm(d.TrainLen())
}

// GatherTrain materializes the training samples at the given indices.
func (d *Dataset) GatherTrain(idx []int) (*tensor.Tensor, []int) {
	c, h, w := d.Config.Channels, d.Config.Height, d.Config.Width
	x := tensor.New(len(idx), c, h, w)
	y := make([]int, len(idx))
	plane := c * h * w
	for i, src := range idx {
		copy(x.Data()[i*plane:(i+1)*plane], d.TrainX.Data()[src*plane:(src+1)*plane])
		y[i] = d.TrainY[src]
	}
	return x, y
}

// Digest returns a SHA-256 of the dataset's contents: the float32 bits of
// TrainX then ValX, then TrainY and ValY as uint32, all little-endian. Two
// datasets with equal digests hold the same bytes.
func (d *Dataset) Digest() [sha256.Size]byte {
	h := sha256.New()
	var buf [4]byte
	for _, x := range [...]*tensor.Tensor{d.TrainX, d.ValX} {
		for _, v := range x.Data() {
			binary.LittleEndian.PutUint32(buf[:], math.Float32bits(v))
			h.Write(buf[:])
		}
	}
	for _, ys := range [...][]int{d.TrainY, d.ValY} {
		for _, y := range ys {
			binary.LittleEndian.PutUint32(buf[:], uint32(y))
			h.Write(buf[:])
		}
	}
	return [sha256.Size]byte(h.Sum(nil))
}
