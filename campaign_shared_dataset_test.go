package goldeneye_test

import (
	"context"
	"fmt"
	"testing"

	"goldeneye"
	"goldeneye/internal/dataset"
	"goldeneye/internal/detect"
	"goldeneye/internal/inject"
	"goldeneye/internal/zoo"
)

// The zoo's dataset is one copy per process, shared by every caller. A
// campaign at every site and target, serial, batched and parallel, with a
// pool and a wrap that alias the shared tensors, must leave its bytes as
// synthesized.
func TestCampaignsLeaveSharedDatasetIntact(t *testing.T) {
	bfp, err := goldeneye.ParseFormat("bfp_e5m5")
	if err != nil {
		t.Fatal(err)
	}
	var ds *dataset.Dataset
	for _, name := range []string{"mlp", "resnet_s"} {
		model, shared, err := zoo.Pretrained(name)
		if err != nil {
			t.Fatal(err)
		}
		ds = shared
		sim := goldeneye.Wrap(model, ds.ValX)
		pool := &goldeneye.EvalPool{X: ds.ValX, Y: ds.ValY, Batch: 50}
		layer := sim.InjectableLayers()[0]
		for _, site := range []inject.Site{goldeneye.SiteValue, goldeneye.SiteMetadata, goldeneye.SiteAccum} {
			for _, target := range []inject.Target{goldeneye.TargetNeuron, goldeneye.TargetWeight} {
				if site == goldeneye.SiteAccum && target == goldeneye.TargetWeight {
					continue // accumulator faults take neuron targets only
				}
				cfg := goldeneye.CampaignConfig{
					Format: bfp, Site: site, Target: target, Layer: layer,
					Injections: 6, Seed: 5, Pool: pool,
					Detectors: []detect.Spec{{Kind: "ranger"}}, Recovery: goldeneye.RecoverClamp,
				}
				t.Run(fmt.Sprintf("%s/%s/%s", name, site, target), func(t *testing.T) {
					if _, err := sim.RunCampaign(context.Background(), cfg); err != nil {
						t.Fatal(err)
					}
					cfg.BatchSize = 4
					if _, err := sim.RunCampaign(context.Background(), cfg); err != nil {
						t.Fatal(err)
					}
					build := func() (*goldeneye.Simulator, error) {
						m, err := zoo.PretrainedOn(zoo.DefaultDir(), name, ds)
						if err != nil {
							return nil, err
						}
						return goldeneye.NewSimulator(m, ds.ValX)
					}
					if _, err := goldeneye.RunCampaignParallel(context.Background(), cfg, 2, build); err != nil {
						t.Fatal(err)
					}
				})
			}
		}
		sim.Evaluate(ds.ValX, ds.ValY, 50, goldeneye.EmulationConfig{Assignment: &goldeneye.FormatAssignment{Params: bfp}})
	}
	if ds.Digest() != dataset.New(dataset.Default()).Digest() {
		t.Fatal("a campaign wrote into the shared dataset")
	}
}
