// Command e2ebench is the repository's end-to-end benchmark: it
// assembles the whole indication loop (RAN slot → SM encode → agent
// batch → transport → server dispatch → monitor decode → tsdb append →
// xApp query and E2 control back into the RAN) from the public
// constructors, drives one named workload for a fixed time, checks the
// loop's outputs, and prints every metric by name with its unit.
//
//	go run ./e2ebench --workload fleet16k --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics; the line before it carries
// the machine, seed, workload parameters and sample counts. With
// --trace 1 the run also measures a traced window (CPU profile with
// per-layer pprof labels, the program's sampled spans, the benchmark's
// own spans, a telemetry snapshot), prints the per-layer metrics and
// writes those artefacts to one directory per run under --outdir.
// The exit code is 1 when the correctness check fails, 2 on a usage or
// set-up error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"
)

func main() {
	name := flag.String("workload", "", "workload name: fleet16k, report-storm or xapp-loop")
	seed := flag.Int64("seed", 1, "seed for the generated inputs")
	seconds := flag.Float64("seconds", 10, "length of the measured window in seconds")
	traced := flag.Int("trace", 0, "1 adds a traced window and prints the per-layer metrics")
	outDir := flag.String("outdir", ".bench_out", "directory for the traced runs' artefacts")
	flag.Parse()

	w, ok := findWorkload(*name)
	if !ok || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "e2ebench: need --workload (fleet16k, report-storm, xapp-loop), --seconds > 0 and --trace 0|1\n")
		os.Exit(2)
	}
	res, err := run(runConfig{
		w: w, seed: *seed, seconds: time.Duration(*seconds * float64(time.Second)),
		trace: *traced == 1, outDir: *outDir, setupFor: 2 * time.Second,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: %v\n", err)
		os.Exit(2)
	}
	for _, n := range res.Notes {
		fmt.Fprintf(os.Stderr, "e2ebench: check: %s\n", n)
	}
	for _, k := range sortedKeys(res.Metrics) {
		fmt.Fprintf(os.Stderr, "%-32s %14.4f %s\n", k, res.Metrics[k].Value, res.Metrics[k].Unit)
	}
	if res.OutPath != "" {
		fmt.Fprintf(os.Stderr, "e2ebench: traced artefacts in %s\n", res.OutPath)
	}
	info, err := json.Marshal(map[string]any{"info": res.Info})
	if err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: %v\n", err)
		os.Exit(2)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: %v\n", err)
		os.Exit(2)
	}
	fmt.Println(string(info))
	fmt.Println(string(out))
	if !res.Correct {
		os.Exit(1)
	}
}
