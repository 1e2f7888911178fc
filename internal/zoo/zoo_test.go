package zoo

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"goldeneye/internal/dataset"
	"goldeneye/internal/models"
	"goldeneye/internal/nn"
	"goldeneye/internal/rng"
	"goldeneye/internal/tensor"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "m.gob")
	a, _ := models.Build("mlp", 10, 3)
	// Perturb weights so the round trip is meaningful.
	a.Params()[0].Value.Data()[0] = 1.234
	if err := SaveState(a, path); err != nil {
		t.Fatal(err)
	}
	b, _ := models.Build("mlp", 10, 99) // different init
	if err := LoadState(b, path); err != nil {
		t.Fatal(err)
	}
	x := tensor.Randn(rng.New(1), 1, 2, models.InChannels, models.InHeight, models.InWidth)
	if !nn.Forward(nil, a, x).AllClose(nn.Forward(nil, b, x), 0) {
		t.Fatal("loaded model behaves differently")
	}
}

func TestLoadStateRejectsMismatchedModel(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "m.gob")
	a, _ := models.Build("mlp", 10, 1)
	if err := SaveState(a, path); err != nil {
		t.Fatal(err)
	}
	b, _ := models.Build("resnet_s", 10, 1)
	if err := LoadState(b, path); err == nil {
		t.Fatal("expected mismatch error")
	}
}

func TestLoadStateMissingFile(t *testing.T) {
	a, _ := models.Build("mlp", 10, 1)
	if err := LoadState(a, filepath.Join(t.TempDir(), "nope.gob")); err == nil {
		t.Fatal("expected error for missing file")
	}
}

func TestPretrainedTrainsAndCaches(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a model")
	}
	dir := t.TempDir()
	m1, ds, err := PretrainedIn(dir, "mlp")
	if err != nil {
		t.Fatal(err)
	}
	// Second call must hit the cache and produce identical weights.
	m2, ds2, err := PretrainedIn(dir, "mlp")
	if err != nil {
		t.Fatal(err)
	}
	if ds2 != ds {
		t.Fatal("a second load synthesized the dataset again")
	}
	x := ds.ValX.Slice(0, 4)
	if !nn.Forward(nil, m1, x).AllClose(nn.Forward(nil, m2, x), 0) {
		t.Fatal("cache round trip changed the model")
	}
}

func TestPretrainedUnknownModel(t *testing.T) {
	if _, _, err := PretrainedIn(t.TempDir(), "nope"); err == nil {
		t.Fatal("expected error")
	}
}

// A file SaveState rewrites at a path LoadState has already decoded must
// be read again, not served from the process's decoded copy.
func TestLoadStateRereadsRewrittenFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "m.gob")
	a, _ := models.Build("mlp", 10, 3)
	w := a.Params()[0].Value.Data()
	w[0] = 1.5
	if err := SaveState(a, path); err != nil {
		t.Fatal(err)
	}
	b, _ := models.Build("mlp", 10, 3)
	if err := LoadState(b, path); err != nil {
		t.Fatal(err)
	}
	if got := b.Params()[0].Value.Data()[0]; got != 1.5 {
		t.Fatalf("first load: weight %v, want 1.5", got)
	}
	w[0] = -2.5
	if err := SaveState(a, path); err != nil {
		t.Fatal(err)
	}
	if err := LoadState(b, path); err != nil {
		t.Fatal(err)
	}
	if got := b.Params()[0].Value.Data()[0]; got != -2.5 {
		t.Fatalf("load after rewrite: weight %v, want -2.5", got)
	}
}

// Two models loaded from one file hold their own parameter storage: a
// write to one reaches neither the other nor a later load.
func TestLoadStateModelsShareNoStorage(t *testing.T) {
	path := filepath.Join(t.TempDir(), "m.gob")
	a, _ := models.Build("mlp", 10, 3)
	if err := SaveState(a, path); err != nil {
		t.Fatal(err)
	}
	b, _ := models.Build("mlp", 10, 4)
	c, _ := models.Build("mlp", 10, 5)
	for _, m := range []nn.Module{b, c} {
		if err := LoadState(m, path); err != nil {
			t.Fatal(err)
		}
	}
	for i, p := range b.Params() {
		q := c.Params()[i].Value.Data()
		if &p.Value.Data()[0] == &q[0] {
			t.Fatalf("param %s: both models hold the same storage", p.Name)
		}
		want := q[0]
		p.Value.Data()[0] = want + 1
		if q[0] != want {
			t.Fatalf("param %s: a write to one model reached the other", p.Name)
		}
	}
	d, _ := models.Build("mlp", 10, 6)
	if err := LoadState(d, path); err != nil {
		t.Fatal(err)
	}
	for i, p := range d.Params() {
		if got, want := p.Value.Data()[0], a.Params()[i].Value.Data()[0]; got != want {
			t.Fatalf("param %s: a later load reads %v, the file holds %v", p.Name, got, want)
		}
	}
}

// A zoo load builds the model without its random initialization; the
// loaded parameters must be bit-identical to loading into an initialized
// build, for every model.
func TestPretrainedOnSkipsInitBitIdentical(t *testing.T) {
	dir := t.TempDir()
	ds := &dataset.Dataset{Config: dataset.Default()} // a load reads only the config
	for _, name := range models.Names() {
		saved, _ := models.Build(name, ds.Config.Classes, 7)
		path := filepath.Join(dir, cacheKey(name, ds.Config))
		if err := SaveState(saved, path); err != nil {
			t.Fatal(err)
		}
		loaded, err := PretrainedOn(dir, name, ds)
		if err != nil {
			t.Fatal(err)
		}
		initialized, _ := models.Build(name, ds.Config.Classes, modelSeed)
		if err := LoadState(initialized, path); err != nil {
			t.Fatal(err)
		}
		for i, p := range loaded.Params() {
			want := initialized.Params()[i].Value.Data()
			for k, v := range p.Value.Data() {
				if math.Float32bits(v) != math.Float32bits(want[k]) {
					t.Fatalf("%s: %s[%d] = %v, want %v", name, p.Name, k, v, want[k])
				}
			}
		}
	}
}

// Concurrent first calls for one configuration share one synthesis, and
// the shared dataset holds dataset.New's bytes.
func TestSharedDatasetConcurrentFirstLoad(t *testing.T) {
	cfg := dataset.Default()
	cfg.Seed = 0x5eed // a configuration no other test asks for
	cfg.TrainPerClass, cfg.ValPerClass = 4, 2
	got := make([]*dataset.Dataset, 8)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = sharedDataset(cfg)
		}()
	}
	wg.Wait()
	for _, ds := range got[1:] {
		if ds != got[0] {
			t.Fatal("concurrent first loads synthesized more than one dataset")
		}
	}
	if got[0].Digest() != dataset.New(cfg).Digest() {
		t.Fatal("shared dataset differs from dataset.New")
	}
}

// The memo keeps at most maxDatasets configurations, dropping the least
// recently used.
func TestSharedDatasetBounded(t *testing.T) {
	cfg := dataset.Default()
	cfg.TrainPerClass, cfg.ValPerClass = 2, 1
	first := make([]*dataset.Dataset, maxDatasets+1)
	for i := range first {
		cfg.Seed = uint64(0xb0 + i)
		first[i] = sharedDataset(cfg)
	}
	if n := datasets.Len(); n > maxDatasets {
		t.Errorf("memo holds %d datasets, bound %d", n, maxDatasets)
	}
	cfg.Seed = 0xb0 + maxDatasets
	if sharedDataset(cfg) != first[maxDatasets] {
		t.Error("the newest configuration was not kept")
	}
	cfg.Seed = 0xb0
	if sharedDataset(cfg) == first[0] {
		t.Error("the oldest configuration was kept past the bound")
	}
}

// The decoded-state memo keeps at most its bound of files; a file it
// dropped loads its own parameters again.
func TestDecodedStateBounded(t *testing.T) {
	bound := len(trainConfigs) * maxDatasets
	dir := t.TempDir()
	path := func(i int) string { return filepath.Join(dir, fmt.Sprintf("m%d.gob", i)) }
	for i := range bound + 1 {
		m, _ := models.Build("mlp", 10, 3)
		m.Params()[0].Value.Data()[0] = float32(i)
		if err := SaveState(m, path(i)); err != nil {
			t.Fatal(err)
		}
		if err := LoadState(m, path(i)); err != nil {
			t.Fatal(err)
		}
	}
	if n := decoded.Len(); n > bound {
		t.Fatalf("memo holds %d decoded states, bound %d", n, bound)
	}
	info, err := os.Stat(path(0))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := decoded.Get(decodedKey{path(0), info.Size(), info.ModTime().UnixNano()}); ok {
		t.Fatal("the least recently used file was kept past the bound")
	}
	m, _ := models.Build("mlp", 10, 4)
	if err := LoadState(m, path(0)); err != nil {
		t.Fatal(err)
	}
	if got := m.Params()[0].Value.Data()[0]; got != 0 {
		t.Fatalf("reload of the evicted file: weight %v, want 0", got)
	}
}
