// Package zoo provides pre-trained models for the experiments. Models are
// trained in-process the first time they are requested and cached on disk
// (gob-serialized parameters, including frozen BatchNorm statistics), so the
// test suite and benchmark harness stay fast and fully deterministic.
package zoo

import (
	"encoding/gob"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"goldeneye/internal/dataset"
	"goldeneye/internal/lru"
	"goldeneye/internal/models"
	"goldeneye/internal/nn"
	"goldeneye/internal/train"
)

// modelSeed is the weight-initialization seed shared by all zoo models.
const modelSeed = 1

// trainConfigs holds per-model hyperparameters. CNNs take SGD at a higher
// rate; transformers need a gentler schedule.
var trainConfigs = map[string]train.Config{
	"resnet_s":  {Epochs: 30, BatchSize: 25, LR: 0.05, Momentum: 0.9, WeightDecay: 1e-4, StopAtTrainAcc: 0.995},
	"resnet_m":  {Epochs: 30, BatchSize: 25, LR: 0.05, Momentum: 0.9, WeightDecay: 1e-4, StopAtTrainAcc: 0.995},
	"vit_tiny":  {Epochs: 40, BatchSize: 25, LR: 0.02, Momentum: 0.9, WeightDecay: 1e-4, StopAtTrainAcc: 0.995},
	"vit_small": {Epochs: 40, BatchSize: 25, LR: 0.015, Momentum: 0.9, WeightDecay: 1e-4, StopAtTrainAcc: 0.995},
	"mlp":       {Epochs: 25, BatchSize: 25, LR: 0.05, Momentum: 0.9, WeightDecay: 1e-4, StopAtTrainAcc: 0.995},
}

// DefaultDir returns the default on-disk cache location.
func DefaultDir() string {
	return filepath.Join(os.TempDir(), "goldeneye-zoo-v1")
}

// Pretrained returns the named model trained on the default dataset, loading
// cached weights from DefaultDir when available.
func Pretrained(name string) (nn.Module, *dataset.Dataset, error) {
	return PretrainedIn(DefaultDir(), name)
}

// PretrainedIn is Pretrained with an explicit cache directory. The dataset
// is the process's shared copy of the default configuration (see
// sharedDataset): callers must not modify it.
func PretrainedIn(dir, name string) (nn.Module, *dataset.Dataset, error) {
	ds := sharedDataset(dataset.Default())
	model, err := PretrainedOn(dir, name, ds)
	return model, ds, err
}

// PretrainedOn loads (or trains) the named model against an already-
// synthesized dataset. Parallel campaign builders use it to avoid paying
// dataset synthesis once per worker. A load builds only the model's
// shapes; the random initialization is drawn only when the model has to
// be trained.
func PretrainedOn(dir, name string, ds *dataset.Dataset) (nn.Module, error) {
	model, err := models.Skeleton(name, ds.Config.Classes)
	if err != nil {
		return nil, err
	}
	path := filepath.Join(dir, cacheKey(name, ds.Config))
	if err := LoadState(model, path); err == nil {
		return model, nil
	}
	if model, err = models.Build(name, ds.Config.Classes, modelSeed); err != nil {
		return nil, err
	}
	cfg, ok := trainConfigs[name]
	if !ok {
		return nil, fmt.Errorf("zoo: no training config for %q", name)
	}
	res := train.Fit(model, ds, cfg)
	if res.ValAcc < 0.5 {
		return nil, fmt.Errorf("zoo: %s trained to implausible val accuracy %.3f", name, res.ValAcc)
	}
	if err := SaveState(model, path); err != nil {
		// A failed cache write degrades performance, not correctness.
		return model, nil
	}
	return model, nil
}

// maxDatasets bounds the datasets sharedDataset keeps: every zoo caller
// uses the default configuration, so one is the working set.
const maxDatasets = 4

// datasets holds, per configuration, the dataset sharedDataset synthesized.
var datasets = lru.New[dataset.Config, *sharedEntry](maxDatasets, 0, nil)

type sharedEntry struct {
	once sync.Once
	ds   *dataset.Dataset
}

// sharedDataset returns dataset.New(cfg), synthesizing it only when the
// process has not done so for cfg before: a daemon that loads a model per
// job otherwise spends most of each job rebuilding the same samples. Past
// maxDatasets configurations the least recently used is dropped (and
// synthesized again if asked for). Concurrent first calls for one
// configuration synthesize it once. The returned dataset is shared and
// must not be modified.
func sharedDataset(cfg dataset.Config) *dataset.Dataset {
	e := datasets.Add(cfg, new(sharedEntry))
	e.once.Do(func() { e.ds = dataset.New(cfg) })
	return e.ds
}

func cacheKey(name string, cfg dataset.Config) string {
	return fmt.Sprintf("%s-c%d-s%d-d%d.gob", name, cfg.Classes, modelSeed, cfg.Seed)
}

// state is the serialized form of a model's parameters.
type state struct {
	Names  []string
	Shapes [][]int
	Values [][]float32
}

// SaveState writes all parameters (trainable and frozen) of m to path,
// atomically.
func SaveState(m nn.Module, path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("zoo: mkdir: %w", err)
	}
	var st state
	for _, p := range m.Params() {
		st.Names = append(st.Names, p.Name)
		st.Shapes = append(st.Shapes, p.Value.Shape())
		st.Values = append(st.Values, append([]float32(nil), p.Value.Data()...))
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), ".zoo-*")
	if err != nil {
		return fmt.Errorf("zoo: temp file: %w", err)
	}
	defer os.Remove(tmp.Name())
	if err := gob.NewEncoder(tmp).Encode(&st); err != nil {
		tmp.Close()
		return fmt.Errorf("zoo: encode: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("zoo: close: %w", err)
	}
	return os.Rename(tmp.Name(), path)
}

// LoadState restores parameters saved by SaveState into m. The model must
// have been built identically (same names and shapes). The file is decoded
// once per process (see decodedState); every call copies the parameters
// into m's own storage.
func LoadState(m nn.Module, path string) error {
	st, err := decodedState(path)
	if err != nil {
		return err
	}
	params := m.Params()
	if len(params) != len(st.Names) {
		return fmt.Errorf("zoo: %s has %d params, model has %d", path, len(st.Names), len(params))
	}
	for i, p := range params {
		if p.Name != st.Names[i] {
			return fmt.Errorf("zoo: param %d name mismatch: %q vs %q", i, st.Names[i], p.Name)
		}
		if p.Value.Len() != len(st.Values[i]) {
			return fmt.Errorf("zoo: param %q size mismatch", p.Name)
		}
		copy(p.Value.Data(), st.Values[i])
	}
	return nil
}

// decoded holds the states decodedState decoded, by file. A parallel
// campaign builds one model per worker, each a LoadState of the same file;
// the bound is one file per zoo model and dataset configuration the
// process keeps.
var decoded = lru.New[decodedKey, decodedFile](len(trainConfigs)*maxDatasets, 0, nil)

// decodedKey names a file by path, size and modification time, so a file
// rewritten in place keys apart from the state decoded before.
type decodedKey struct {
	path      string
	size, mod int64
}

type decodedFile struct {
	info os.FileInfo
	st   *state
}

// from reports whether d was decoded from the file info describes: the
// same file, with the same size and modification time.
func (d decodedFile) from(info os.FileInfo) bool {
	return os.SameFile(d.info, info) && d.info.Size() == info.Size() && d.info.ModTime().Equal(info.ModTime())
}

// decodedState returns the state stored at path, decoding the file only
// when the process has not decoded this file before: a path whose file was
// replaced (SaveState renames a new file over it) or rewritten in place
// (another size or modification time) is decoded again. The returned
// state is shared and must not be modified.
func decodedState(path string) (*state, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	info, err := f.Stat()
	if err != nil {
		return nil, err
	}
	key := decodedKey{path, info.Size(), info.ModTime().UnixNano()}
	if d, ok := decoded.Get(key); ok && d.from(info) {
		return d.st, nil
	}
	st := new(state)
	if err := gob.NewDecoder(f).Decode(st); err != nil {
		return nil, fmt.Errorf("zoo: decode %s: %w", path, err)
	}
	// A state another file left under the key (one replaced by a file of
	// the same size and time) is kept; this load returns its own.
	if d := decoded.Add(key, decodedFile{info: info, st: st}); d.from(info) {
		return d.st, nil
	}
	return st, nil
}
