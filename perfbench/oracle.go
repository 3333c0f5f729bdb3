package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"strconv"
)

// expectedJSON is the committed simulated-result oracle: the digest of a
// rep's simulated results per workload family and seed (see simResult). It
// changes only with a change that is meant to move the model, and is then
// regenerated with
//
//	.bench_build/perfbench -bless 1,2,3,4,5,6,7,8,9,10,1013 > perfbench/expected.json
//
// The last seed listed becomes the held-out seed.
//
//go:embed expected.json
var expectedJSON []byte

type oracle struct {
	// HeldOut is a seed kept out of development: a change is written and
	// tuned against the other seeds, and its claim re-checked on this one.
	HeldOut int64 `json:"held_out_seed"`
	// Digests maps workload family, then seed, to the expected digest.
	Digests map[string]map[string]string `json:"digests"`
}

// family names the simulated experiment a workload runs. fio-4k-fused and
// fio-4k-digest run the same traffic on the same seed and differ only in
// the observer attached, so they share one expectation.
func (w *workload) family() string {
	if w.apps {
		return "apps-mixed"
	}
	return "fio-4k"
}

func loadOracle() (*oracle, error) {
	var o oracle
	if err := json.Unmarshal(expectedJSON, &o); err != nil {
		return nil, fmt.Errorf("expected.json: %w", err)
	}
	return &o, nil
}

func (o *oracle) expect(w *workload, seed int64) (string, bool) {
	d, ok := o.Digests[w.family()][strconv.FormatInt(seed, 10)]
	return d, ok
}

// blessOracle computes the oracle for the given seeds. For the fio family
// it runs both the fused and the digest-traced workload and refuses to
// bless a seed on which they disagree.
func blessOracle(seeds []int64) (*oracle, error) {
	o := &oracle{HeldOut: seeds[len(seeds)-1], Digests: map[string]map[string]string{}}
	for _, w := range workloads {
		if o.Digests[w.family()] == nil {
			o.Digests[w.family()] = map[string]string{}
		}
		for _, seed := range seeds {
			d := &driver{w: w, seed: seed, clock: &runClock{}}
			st, err := d.rep(repMeasured)
			if err != nil {
				return nil, err
			}
			key := strconv.FormatInt(seed, 10)
			if prev, ok := o.Digests[w.family()][key]; ok && prev != st.digest {
				return nil, fmt.Errorf("seed %d: %s digest %s differs from its family's %s", seed, w.name, st.digest, prev)
			}
			o.Digests[w.family()][key] = st.digest
		}
	}
	return o, nil
}
