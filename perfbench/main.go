// Command perfbench is the repository's host-cost benchmark: how many host
// seconds a simulated result costs, end to end and layer by layer, on three
// fixed workloads, with the simulated results themselves checked against a
// committed oracle. See README.md in this directory.
//
// Build and run it from the repository root through run.sh:
//
//	bash perfbench/run.sh --workload fio-4k-fused --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object: correct, attempted,
// failed and metrics. With --trace 0 the metrics are the end-to-end ones,
// measured with every observer off; with --trace 1 they are the per-layer
// ones from a run that alternates untraced and traced reps.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"
)

func main() {
	var (
		name    = flag.String("workload", "", "workload name: fio-4k-fused, fio-4k-digest or apps-mixed")
		seed    = flag.Int64("seed", 1, "workload seed; goes only into the rig seed and the workload-driver seeds")
		seconds = flag.Int("seconds", 20, "host seconds of measured windows to collect")
		traced  = flag.Int("trace", 0, "0: end-to-end metrics, observers off; 1: per-layer metrics")
		out     = flag.String("out", ".bench_build", "directory for the span file of traced runs")
		bless   = flag.String("bless", "", "comma-separated seeds: print the oracle file for them and exit")
	)
	flag.Parse()
	// One rig runs on one core, as in a parallel sweep. A second P would
	// only add idle spinning to every process switch and expose each run to
	// the load on a second CPU.
	runtime.GOMAXPROCS(1)

	if *bless != "" {
		if err := blessSeeds(*bless); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	w, err := workloadByName(*name)
	if err == nil && (*seconds < 1 || (*traced != 0 && *traced != 1)) {
		err = fmt.Errorf("need --seconds >= 1 and --trace 0 or 1")
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	d := &driver{
		w: w, seed: *seed, budget: time.Duration(*seconds) * time.Second,
		traced: *traced == 1, out: *out, clock: &runClock{t0: time.Now()},
	}
	res, err := d.run()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// report is the benchmark's result line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted uint64            `json:"attempted"`
	Failed    uint64            `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func blessSeeds(list string) error {
	var seeds []int64
	for _, f := range strings.Split(list, ",") {
		s, err := strconv.ParseInt(strings.TrimSpace(f), 10, 64)
		if err != nil {
			return fmt.Errorf("bad seed %q: %w", f, err)
		}
		seeds = append(seeds, s)
	}
	o, err := blessOracle(seeds)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(o)
}
