package bench

import (
	_ "embed"
	"encoding/json"
	"fmt"
)

// digests.json pins the behaviour digest of every workload for the default
// seed at NominalSeconds. A run whose digest differs from its pin reports
// testbed.digest_drift = 1 — reported, never failed, so that a deliberate
// behaviour fix is not blocked; the fix then re-pins by copying the
// digests.json that tppbench writes beside its report over this one.
//
//go:embed digests.json
var digestsJSON []byte

var pinned = func() map[string]string {
	m := map[string]string{}
	// A malformed pin file only disables drift reporting; the digest
	// checks between rounds do not depend on it.
	_ = json.Unmarshal(digestsJSON, &m)
	return m
}()

// digestKey names one pinned run.
func digestKey(workload string, seed int64, seconds float64) string {
	return fmt.Sprintf("%s/seed=%d/seconds=%g", workload, seed, seconds)
}

// pinnedDigest returns the pinned digest for the run, "" when none.
func pinnedDigest(workload string, seed int64, seconds float64) string {
	return pinned[digestKey(workload, seed, seconds)]
}
