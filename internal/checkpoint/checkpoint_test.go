package checkpoint

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"goldeneye"
	"goldeneye/internal/metrics"
)

func sampleCell(key string) *Cell {
	rep := &goldeneye.CampaignReport{
		Config: goldeneye.CampaignConfig{
			Site: goldeneye.SiteValue, Target: goldeneye.TargetNeuron,
			Layer: 3, Injections: 100, Seed: 42,
		},
		Detected: 4,
		Aborted:  2,
	}
	for i := 0; i < 35; i++ {
		rep.Record(i%3 == 0, float64(i)*0.125+0.01, i%7 == 0)
	}
	return &Cell{Key: key, ConfigHash: HashConfig("fp32", 3, true), Report: rep}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	want := sampleCell("fig7/mlp/fp32/L03/value")
	if err := st.Save(want); err != nil {
		t.Fatal(err)
	}
	got, err := st.Load(want.Key)
	if err != nil {
		t.Fatal(err)
	}
	if got == nil {
		t.Fatal("Load returned nil for saved cell")
	}
	if got.Key != want.Key || got.ConfigHash != want.ConfigHash || got.Done != want.Done {
		t.Fatalf("round trip mismatch: got %+v want %+v", got, want)
	}
	// The report — Welford accumulators included — must survive
	// bit-exactly: resumed campaigns continue Add() on the restored state,
	// and cache hits serve the restored report's wire bytes.
	a, err := json.Marshal(want.Report)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(got.Report)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("report round trip is not byte-identical:\n got %s\nwant %s", b, a)
	}
	if got.Report.DeltaLoss != want.Report.DeltaLoss || got.Report.MismatchStat != want.Report.MismatchStat {
		t.Fatal("RunningStat JSON round trip is not bit-exact")
	}
}

func TestRunningStatContinuationAfterRoundTrip(t *testing.T) {
	// Serial continuation after persistence must equal an uninterrupted
	// accumulation — this is what makes resumed reports bit-identical.
	xs := []float64{0.1, 2.5, 0.3333333333333333, 7.25, 1e-9, 30, 0.7}
	var full metrics.RunningStat
	for _, x := range xs {
		full.Add(x)
	}

	var prefix metrics.RunningStat
	for _, x := range xs[:4] {
		prefix.Add(x)
	}
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cell := &Cell{Key: "k", Report: &goldeneye.CampaignReport{
		CampaignResult: metrics.CampaignResult{DeltaLoss: prefix}}}
	if err := st.Save(cell); err != nil {
		t.Fatal(err)
	}
	loaded, err := st.Load("k")
	if err != nil || loaded == nil {
		t.Fatalf("load: %v %v", loaded, err)
	}
	resumed := loaded.Report.DeltaLoss
	for _, x := range xs[4:] {
		resumed.Add(x)
	}
	if resumed.Mean() != full.Mean() || resumed.Variance() != full.Variance() || resumed.N() != full.N() {
		t.Fatalf("continuation diverged: resumed mean=%v var=%v, full mean=%v var=%v",
			resumed.Mean(), resumed.Variance(), full.Mean(), full.Variance())
	}
}

func TestLoadMissingReturnsNil(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	c, err := st.Load("never/saved")
	if err != nil || c != nil {
		t.Fatalf("want (nil, nil) for missing cell, got (%v, %v)", c, err)
	}
}

func TestLoadCorruptTreatedAsAbsent(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Save(sampleCell("cell")); err != nil {
		t.Fatal(err)
	}
	for name, doc := range map[string]string{
		"truncated": "{truncated",
		// The pre-report cell shape: aggregates but no report.
		"old shape":    `{"key":"cell","config_hash":1,"seed":42,"planned":100,"completed":37,"done":true,"result":{}}`,
		"newer schema": `{"key":"cell","done":true,"report":{"version":99}}`,
		"null report":  `{"key":"cell","done":true,"report":null}`,
		"undecodable":  `{"key":"cell","done":true,"report":{"version":1,"config":{"version":1,"format":"banana"}}}`,
	} {
		if err := os.WriteFile(st.path("cell"), []byte(doc), 0o644); err != nil {
			t.Fatal(err)
		}
		c, err := st.Load("cell")
		if err != nil || c != nil {
			t.Errorf("%s checkpoint should read as absent, got (%v, %v)", name, c, err)
		}
	}
}

func TestKeySanitizationKeepsKeysDistinct(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	// Both keys sanitize to the same slug; the hash suffix must keep the
	// files distinct and the stored key must disambiguate on load.
	a, b := "fig7/mlp fp32", "fig7/mlp:fp32"
	ca, cb := sampleCell(a), sampleCell(b)
	cb.Report.Aborted = 9
	if err := st.Save(ca); err != nil {
		t.Fatal(err)
	}
	if err := st.Save(cb); err != nil {
		t.Fatal(err)
	}
	ga, err := st.Load(a)
	if err != nil || ga == nil || ga.Report.Aborted != ca.Report.Aborted {
		t.Fatalf("key %q: got %+v err %v", a, ga, err)
	}
	gb, err := st.Load(b)
	if err != nil || gb == nil || gb.Report.Aborted != 9 {
		t.Fatalf("key %q: got %+v err %v", b, gb, err)
	}
	name := filepath.Base(st.path(a))
	if strings.ContainsAny(name, " :/") {
		t.Fatalf("unsanitized filename %q", name)
	}
}

func TestClearRemovesCells(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Save(sampleCell("x")); err != nil {
		t.Fatal(err)
	}
	if err := st.Clear(); err != nil {
		t.Fatal(err)
	}
	c, err := st.Load("x")
	if err != nil || c != nil {
		t.Fatalf("cell survived Clear: (%v, %v)", c, err)
	}
}

func TestHashConfigDistinguishesParameters(t *testing.T) {
	base := HashConfig("fp16", 3, 1000, uint64(7))
	if base != HashConfig("fp16", 3, 1000, uint64(7)) {
		t.Fatal("HashConfig is not deterministic")
	}
	for _, other := range []uint64{
		HashConfig("fp16", 4, 1000, uint64(7)),
		HashConfig("fp32", 3, 1000, uint64(7)),
		HashConfig("fp16", 3, 1001, uint64(7)),
		HashConfig("fp16", 3, 1000, uint64(8)),
		// Separator test: ("ab","c") must differ from ("a","bc").
		HashConfig("ab", "c"),
	} {
		if other == base && other != HashConfig("ab", "c") {
			t.Fatalf("hash collision on differing config: %x", other)
		}
	}
	if HashConfig("ab", "c") == HashConfig("a", "bc") {
		t.Fatal("HashConfig concatenates fields without separation")
	}
}
