// Command benchmark is the repository benchmark: it builds one workload's
// engine from generated inputs, drives it from this process in a closed
// loop, checks every answer, and prints one JSON result line.
//
//	benchmark --workload embedded-read --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics; with --trace 1
// it carries the per-layer metrics of a separate traced run, and the run
// writes its spans and a self-time table under .bench_build/trace. See
// README.md for the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
)

// traceDir receives the traced run's spans and self-time table, inside
// the build directory run.sh keeps everything in.
const traceDir = ".bench_build/trace"

func main() {
	var (
		workload = flag.String("workload", "", "workload: embedded-read|stream-rw|http-planner")
		seed     = flag.Int64("seed", 1, "seed for the data, the queries and the model")
		seconds  = flag.Float64("seconds", 10, "length of the measured load phase in seconds")
		trace    = flag.Int("trace", 0, "1 runs the traced run and reports per-layer metrics")
		commit   = flag.String("commit", "unknown", "commit or source digest recorded with the result")
	)
	flag.Parse()
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "benchmark: --seconds must be positive and --trace 0 or 1")
		os.Exit(2)
	}
	rep, err := run(config{
		workload: *workload, seed: *seed, seconds: *seconds, trace: *trace == 1,
		outDir: traceDir, log: os.Stderr,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(2)
	}
	rep.info["gomaxprocs"] = runtime.GOMAXPROCS(0)
	rep.info["nproc"] = runtime.NumCPU()
	rep.info["go"] = runtime.Version()
	rep.info["commit"] = *commit
	info, _ := json.Marshal(rep.info) // plain maps of numbers and strings
	fmt.Printf("info: %s\n", info)
	if rep.selfTable != "" {
		fmt.Print(rep.selfTable)
	}
	line, _ := json.Marshal(rep.res) // plain struct of numbers and strings
	fmt.Println(string(line))
	os.Exit(exitCode(rep.res))
}

// exitCode is non-zero when any answer was wrong or any operation failed.
func exitCode(r result) int {
	if r.Correct {
		return 0
	}
	return 1
}
