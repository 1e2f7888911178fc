package goldeneye

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"
)

// ShardConfigs splits one campaign into k deterministic stride shards:
// shard s executes the injection indices i ≡ s (mod k) serially, exactly
// the assignment RunCampaignParallel gives worker s of k. k is clamped to
// cfg.Injections (empty shards are invalid) and to at least 1. With k == 1
// the single returned config is unsharded — byte-identical on the wire to
// the original — so a one-node "fleet" degenerates to a plain remote job.
//
// The returned configs share cfg's runtime pointers (Pool, Metrics,
// Progress); wire encoding drops those, so shards travel cleanly.
func ShardConfigs(cfg CampaignConfig, k int) []CampaignConfig {
	if k > cfg.Injections {
		k = cfg.Injections
	}
	if k < 1 {
		k = 1
	}
	shards := make([]CampaignConfig, k)
	for s := range shards {
		shards[s] = cfg
		if k > 1 {
			shards[s].ShardIndex = s
			shards[s].ShardCount = k
		} else {
			shards[s].ShardIndex = 0
			shards[s].ShardCount = 0
		}
	}
	return shards
}

// ShardMergeError reports a shard-report set that cannot be merged into a
// campaign report: missing or duplicate shard indices, mismatched shard
// counts or campaign configurations, or a shard whose executed injection
// count does not cover its stride slice.
type ShardMergeError struct {
	Reason string
}

func (e *ShardMergeError) Error() string {
	return "goldeneye: shard merge: " + e.Reason
}

func shardMergeErrf(format string, args ...interface{}) error {
	return &ShardMergeError{Reason: fmt.Sprintf(format, args...)}
}

// shardlessConfigJSON is a shard config's wire encoding with the shard
// fields cleared — the canonical form used to check that every shard of a
// merge set belongs to the same campaign. Configs that cannot be encoded
// (custom detector factories) return nil and skip the comparison.
func shardlessConfigJSON(cfg CampaignConfig) []byte {
	cfg.ShardIndex, cfg.ShardCount = 0, 0
	b, err := json.Marshal(cfg)
	if err != nil {
		return nil
	}
	return b
}

// MergeShardReports merges the K reports of a campaign's stride shards
// (ShardConfigs order, given in any permutation) into one CampaignReport
// that is byte-identical — wire encoding included — to the report a single
// node produces for the whole campaign with RunCampaignParallel at
// workers=K. Identical, that is, in every aggregate: the Welford ΔLoss
// moments merge in shard-index order exactly as the parallel merge does,
// detector breakdowns take the (deterministic, shard-invariant)
// false-positive baseline from shard 0 and sum detections across shards,
// and KeepTrace traces interleave back into injection order.
//
// The set must contain exactly one report per shard index 0..K-1, all
// agreeing on ShardCount and on the underlying campaign configuration; a
// violated invariant returns a typed *ShardMergeError. An Interrupted
// shard marks the merged report Interrupted (the fleet coordinator treats
// such shards as failed and re-dispatches them instead of merging).
//
// A single unsharded report passes through unchanged, so callers can feed
// the degenerate one-shard case without special-casing.
func MergeShardReports(reports []*CampaignReport) (*CampaignReport, error) {
	if len(reports) == 0 {
		return nil, shardMergeErrf("no shard reports")
	}
	for i, r := range reports {
		if r == nil {
			return nil, shardMergeErrf("nil report at position %d", i)
		}
	}
	if len(reports) == 1 && reports[0].Config.ShardCount <= 1 {
		return reports[0], nil
	}

	shards := make([]*CampaignReport, len(reports))
	copy(shards, reports)
	sort.Slice(shards, func(a, b int) bool {
		return shards[a].Config.ShardIndex < shards[b].Config.ShardIndex
	})
	k := shards[0].Config.ShardCount
	if len(shards) != k {
		return nil, shardMergeErrf("have %d reports for shard count %d", len(shards), k)
	}
	ref := shardlessConfigJSON(shards[0].Config)
	for s, sh := range shards {
		if sh.Config.ShardIndex != s {
			return nil, shardMergeErrf("missing or duplicate shard index %d (found %d)", s, sh.Config.ShardIndex)
		}
		if sh.Config.ShardCount != k {
			return nil, shardMergeErrf("shard %d declares shard count %d, want %d", s, sh.Config.ShardCount, k)
		}
		if enc := shardlessConfigJSON(sh.Config); ref != nil && enc != nil && !bytes.Equal(enc, ref) {
			return nil, shardMergeErrf("shard %d ran a different campaign configuration", s)
		}
		if (sh.Sampling != nil) != (shards[0].Sampling != nil) {
			return nil, shardMergeErrf("shard %d and shard 0 disagree on carrying estimator state", s)
		}
		planned := sh.Config.PlannedInjections()
		if sh.Sampling != nil {
			// A sampled shard executes only its selection; completeness is
			// instead that its estimator accounted the whole stride slice.
			if covered := sh.Sampling.FaultSpace(); covered != planned && !sh.Interrupted {
				return nil, shardMergeErrf("shard %d covered %d of %d planned fault-space indices", s, covered, planned)
			}
			if executed := sh.Injections + sh.Aborted; executed != sh.Sampling.ExecutedTotal()+sh.Sampling.AbortedTotal() && !sh.Interrupted {
				return nil, shardMergeErrf("shard %d recorded %d injections but its estimator observed %d",
					s, executed, sh.Sampling.ExecutedTotal()+sh.Sampling.AbortedTotal())
			}
		} else if executed := sh.Injections + sh.Aborted; executed != planned && !sh.Interrupted {
			return nil, shardMergeErrf("shard %d executed %d of %d planned injections", s, executed, planned)
		}
	}

	cfg := shards[0].Config
	cfg.ShardIndex, cfg.ShardCount = 0, 0
	merged := &CampaignReport{Config: cfg}
	// The merge RunCampaignParallel uses at workers=K, so the merged
	// report is bit-identical to a single node's.
	if err := mergeReports(merged, shards); err != nil {
		return nil, shardMergeErrf("%v", err)
	}
	return merged, nil
}
