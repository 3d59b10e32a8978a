package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// refDigest is a single-process reference: the record count and the
// sha256 of replay.DigestOf's serialization, the repository's
// determinism oracle.
type refDigest struct {
	Records int64  `json:"records"`
	Digest  string `json:"digest"`
	source  string // pinned, cached or computed
}

// check compares one replay's record count and digest with the
// reference. Simulated download failures inside the replay are domain
// outcomes folded into the digest, not errors; only a mismatch fails.
func (r refDigest) check(records int64, digest string) error {
	if records != r.Records || digest != r.Digest {
		return fmt.Errorf("%w: replay of %d records digests to sha256:%s, reference %d records sha256:%s",
			errCheck, records, digest, r.Records, r.Digest)
	}
	return nil
}

// pinned holds the references for the default seed (1) at the committed
// input sizes. Any change to generation, the trace format or the replay
// that moves a digest shows up as a failed output check here.
var pinned = map[string]refDigest{
	"week":  {Records: 206406, Digest: "d12487bfc1a957864c334b94b8a8d9321ba942d15148be1851d0997293b2c074"},
	"coord": {Records: 206406, Digest: "2f91e6e5ab621c90257071a26f8f0a6fc28f41ced0b6910c021854744d4b5fc7"},
}

// reference returns the workload's reference for the run's seed: pinned
// for the default seed, otherwise computed once per seed and cached
// under the work directory. It runs before the timed operation and
// outside setup_s.
func reference(c config, name string, compute func() (refDigest, error)) (refDigest, error) {
	if p, ok := pinned[name]; ok && c.seed == 1 && c.weekFiles == weekFiles {
		p.source = "pinned"
		return p, nil
	}
	path := filepath.Join(c.work, "ref", fmt.Sprintf("%s-%d-seed%d.json", name, c.weekFiles, c.seed))
	if raw, err := os.ReadFile(path); err == nil {
		var r refDigest
		if json.Unmarshal(raw, &r) == nil && r.Digest != "" {
			r.source = "cached"
			return r, nil
		}
	}
	r, err := compute()
	if err != nil {
		return refDigest{}, fmt.Errorf("%s reference: %w", name, err)
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return refDigest{}, err
	}
	raw, err := json.Marshal(r)
	if err != nil {
		return refDigest{}, err
	}
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		return refDigest{}, err
	}
	r.source = "computed"
	return r, nil
}
