// Package checkpoint persists per-cell campaign state so interrupted
// experiment sweeps can resume where they stopped and the campaign
// service's results survive restarts. A "cell" is one campaign of a
// figure sweep (one model × format × layer × site combination) or one
// cached service job; its checkpoint is the campaign's report — partial
// or complete — in the report's own versioned wire encoding, plus a hash
// of the configuration that produced it. The report is the persisted
// state: whatever its wire encoding carries survives, and nothing else
// decides it. Because the fault sequence is drawn deterministically from
// the campaign seed, a partial report is enough to resume (see
// goldeneye.CampaignConfig.Resume), and the resumed cell's final report
// is bit-identical to an uninterrupted run's.
//
// Files are one JSON document per cell, written atomically (temp file +
// rename) so a kill mid-write can never leave a truncated checkpoint.
package checkpoint

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io/fs"
	"os"
	"path/filepath"
	"strings"

	"goldeneye"
)

// Cell is the persisted state of one sweep cell or cached job.
type Cell struct {
	// Key identifies the cell within its sweep (e.g.
	// "fig7/mlp/fp32/L03/value"). It is stored in the file as well as the
	// filename so hash-truncated filenames cannot silently collide.
	Key string `json:"key"`

	// ConfigHash fingerprints the campaign configuration that produced
	// this state. A mismatch on load means the sweep parameters changed;
	// the stale cell is ignored rather than resumed.
	ConfigHash uint64 `json:"config_hash"`

	// Done marks a complete report; otherwise Report is the partial report
	// of an interrupted (or failed) run, covering its first
	// Injections+Aborted fault draws.
	Done bool `json:"done"`

	// Report is the campaign's report in its wire encoding.
	Report *goldeneye.CampaignReport `json:"report"`
}

// Store reads and writes cell checkpoints under one directory.
type Store struct {
	dir string
}

// Open creates (if needed) and returns the checkpoint store at dir.
func Open(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("checkpoint: open %s: %w", dir, err)
	}
	return &Store{dir: dir}, nil
}

// Dir returns the store's directory.
func (s *Store) Dir() string { return s.dir }

// path maps a cell key to its checkpoint filename: the key sanitized to a
// filesystem-safe slug (capped in length), plus a short hash suffix that
// keeps distinct keys distinct after sanitization/truncation.
func (s *Store) path(key string) string {
	slug := strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '.', r == '_', r == '-':
			return r
		default:
			return '_'
		}
	}, key)
	if len(slug) > 80 {
		slug = slug[:80]
	}
	h := fnv.New32a()
	h.Write([]byte(key))
	return filepath.Join(s.dir, fmt.Sprintf("%s-%08x.json", slug, h.Sum32()))
}

// Load returns the checkpoint for key, or nil if none exists. A file whose
// stored key does not match (filename-hash collision), that fails to parse
// (truncated by a crash predating atomic writes, manual edits), or whose
// report is missing or does not decode (a cell written in an older shape,
// a report from a newer schema) is treated as absent rather than poisoning
// the sweep: the cell is recomputed.
func (s *Store) Load(key string) (*Cell, error) {
	data, err := os.ReadFile(s.path(key))
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("checkpoint: load %q: %w", key, err)
	}
	var c Cell
	if err := json.Unmarshal(data, &c); err != nil {
		return nil, nil
	}
	if c.Key != key || c.Report == nil {
		return nil, nil
	}
	return &c, nil
}

// LoadMatching returns the checkpoint for key only when it exists and was
// produced by the configuration fingerprinted by hash; a missing, stale, or
// corrupt cell comes back nil. It is the lookup both the experiment sweeps
// and the campaign service's result cache use, so "same parameters resume /
// hit, changed parameters re-run" behaves identically everywhere.
func (s *Store) LoadMatching(key string, hash uint64) (*Cell, error) {
	cell, err := s.Load(key)
	if err != nil || cell == nil {
		return nil, err
	}
	if cell.ConfigHash != hash {
		return nil, nil
	}
	return cell, nil
}

// Save atomically writes the checkpoint for c.Key: the JSON is written to a
// temp file in the store directory and renamed into place, so a concurrent
// reader or a kill mid-write sees either the old cell or the new one, never
// a torn file.
func (s *Store) Save(c *Cell) error {
	data, err := json.MarshalIndent(c, "", "  ")
	if err != nil {
		return fmt.Errorf("checkpoint: save %q: %w", c.Key, err)
	}
	tmp, err := os.CreateTemp(s.dir, ".ckpt-*.tmp")
	if err != nil {
		return fmt.Errorf("checkpoint: save %q: %w", c.Key, err)
	}
	_, werr := tmp.Write(append(data, '\n'))
	cerr := tmp.Close()
	if werr != nil || cerr != nil {
		os.Remove(tmp.Name())
		if werr == nil {
			werr = cerr
		}
		return fmt.Errorf("checkpoint: save %q: %w", c.Key, werr)
	}
	if err := os.Rename(tmp.Name(), s.path(c.Key)); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("checkpoint: save %q: %w", c.Key, err)
	}
	return nil
}

// Clear removes every checkpoint in the store (a fresh, non-resumed sweep
// must not inherit cells from a previous run with the same directory).
func (s *Store) Clear() error {
	paths, err := filepath.Glob(filepath.Join(s.dir, "*.json"))
	if err != nil {
		return err
	}
	for _, p := range paths {
		if err := os.Remove(p); err != nil {
			return fmt.Errorf("checkpoint: clear: %w", err)
		}
	}
	return nil
}

// HashConfig fingerprints an arbitrary tuple of configuration values with
// FNV-1a over their %v renderings. It is not cryptographic — it only needs
// to distinguish "same sweep parameters" from "sweep was re-run with
// different flags", in which case the stale checkpoint is discarded.
func HashConfig(parts ...interface{}) uint64 {
	h := fnv.New64a()
	for _, p := range parts {
		fmt.Fprintf(h, "%v\x00", p)
	}
	return h.Sum64()
}
