package dataset

import (
	"encoding/hex"
	"testing"
	"testing/quick"
)

// defaultDigest is the Digest of New(Default()). Every model in the zoo
// was trained on these bytes, so any change to synthesis must keep it.
const defaultDigest = "2bab7c5ac8f210c192a19145d6f283ac4a6bda3027007c82f7f12636587242bd"

func TestDefaultDigestPinned(t *testing.T) {
	if got := New(Default()).Digest(); hex.EncodeToString(got[:]) != defaultDigest {
		t.Fatalf("New(Default()) digest %x, want %s", got, defaultDigest)
	}
}

func TestNewGeometry(t *testing.T) {
	cfg := Default()
	ds := New(cfg)
	wantTrain := cfg.Classes * cfg.TrainPerClass
	wantVal := cfg.Classes * cfg.ValPerClass
	if ds.TrainLen() != wantTrain || ds.ValLen() != wantVal {
		t.Fatalf("sizes: train %d val %d, want %d/%d", ds.TrainLen(), ds.ValLen(), wantTrain, wantVal)
	}
	shape := ds.TrainX.Shape()
	if shape[1] != cfg.Channels || shape[2] != cfg.Height || shape[3] != cfg.Width {
		t.Fatalf("train shape %v", shape)
	}
}

func TestDeterminism(t *testing.T) {
	a := New(Default())
	b := New(Default())
	if !a.TrainX.AllClose(b.TrainX, 0) || !a.ValX.AllClose(b.ValX, 0) {
		t.Fatal("same config must produce identical data")
	}
	for i := range a.TrainY {
		if a.TrainY[i] != b.TrainY[i] {
			t.Fatal("labels differ")
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	cfg := Default()
	a := New(cfg)
	cfg.Seed++
	b := New(cfg)
	if a.TrainX.AllClose(b.TrainX, 1e-6) {
		t.Fatal("different seeds produced identical data")
	}
}

func TestLabelsAreBalancedAndInterleaved(t *testing.T) {
	cfg := Default()
	ds := New(cfg)
	counts := make([]int, cfg.Classes)
	for i, y := range ds.TrainY {
		counts[y]++
		if y != i%cfg.Classes {
			t.Fatalf("labels not interleaved at %d", i)
		}
	}
	for k, c := range counts {
		if c != cfg.TrainPerClass {
			t.Fatalf("class %d has %d samples, want %d", k, c, cfg.TrainPerClass)
		}
	}
}

func TestClassesAreSeparable(t *testing.T) {
	// Nearest-prototype (class mean) classification on clean means should
	// beat chance by a wide margin, or the dataset carries no signal.
	cfg := Default()
	ds := New(cfg)
	dims := cfg.Channels * cfg.Height * cfg.Width
	means := make([][]float64, cfg.Classes)
	for k := range means {
		means[k] = make([]float64, dims)
	}
	for i, y := range ds.TrainY {
		src := ds.TrainX.Data()[i*dims : (i+1)*dims]
		for j, v := range src {
			means[y][j] += float64(v)
		}
	}
	for k := range means {
		for j := range means[k] {
			means[k][j] /= float64(cfg.TrainPerClass)
		}
	}
	correct := 0
	for i, y := range ds.ValY {
		src := ds.ValX.Data()[i*dims : (i+1)*dims]
		best, bestDist := -1, 0.0
		for k := range means {
			var d float64
			for j, v := range src {
				diff := float64(v) - means[k][j]
				d += diff * diff
			}
			if best < 0 || d < bestDist {
				best, bestDist = k, d
			}
		}
		if best == y {
			correct++
		}
	}
	acc := float64(correct) / float64(ds.ValLen())
	if acc < 0.5 {
		t.Fatalf("nearest-mean accuracy %.3f: dataset not separable", acc)
	}
}

func TestShuffledOrderIsPermutationProperty(t *testing.T) {
	ds := New(Default())
	prop := func(epoch uint8) bool {
		order := ds.ShuffledOrder(int(epoch))
		if len(order) != ds.TrainLen() {
			return false
		}
		seen := make([]bool, len(order))
		for _, i := range order {
			if i < 0 || i >= len(order) || seen[i] {
				return false
			}
			seen[i] = true
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestShuffledOrderVariesByEpoch(t *testing.T) {
	ds := New(Default())
	a, b := ds.ShuffledOrder(1), ds.ShuffledOrder(2)
	same := true
	for i := range a {
		if a[i] != b[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("epochs should shuffle differently")
	}
}

func TestGatherTrain(t *testing.T) {
	ds := New(Default())
	x, y := ds.GatherTrain([]int{5, 0, 5})
	if x.Dim(0) != 3 || y[0] != ds.TrainY[5] || y[1] != ds.TrainY[0] {
		t.Fatal("GatherTrain wrong rows")
	}
	if !x.Slice(0, 1).AllClose(x.Slice(2, 3), 0) {
		t.Fatal("duplicate index should duplicate data")
	}
}

func TestBatchAccessors(t *testing.T) {
	ds := New(Default())
	x, y := ds.TrainBatch(10, 20)
	if x.Dim(0) != 10 || len(y) != 10 {
		t.Fatal("TrainBatch size wrong")
	}
	vx, vy := ds.ValBatch(0, 5)
	if vx.Dim(0) != 5 || len(vy) != 5 {
		t.Fatal("ValBatch size wrong")
	}
}

func TestImplausibleConfigPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(Config{Classes: 1, Channels: 1, Height: 2, Width: 2})
}
