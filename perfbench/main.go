// Command perfbench is the repository benchmark. It drives the replay
// pipeline and the multi-process coordinator (cmd/odrcoord) through two
// end-to-end workloads, checks every run's output, and prints the
// end-to-end metrics named in BENCHMARK.json as the last line of standard
// output.
//
// Usage (normally through perfbench/run.sh, which builds the binaries):
//
//	perfbench -bin DIR -work DIR -workload week|coord -seed N -seconds S -trace 0|1
//
// With -trace 1 it instead runs the traced battery: every layer's public
// calls timed from outside, for the week and coord workloads and for the
// live decide service (cmd/odrserver), and prints the per-layer metrics.
//
// The same binary is the week workload's system-under-test process
// (`perfbench week-child ...`), so each timed week operation runs in a
// fresh process and its CPU and peak RSS are its own.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "week-child" {
		if err := weekChildMain(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench week-child:", err)
			os.Exit(1)
		}
		return
	}
	os.Exit(run(os.Args[1:]))
}

// config is one benchmark invocation.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	traced   bool
	bin      string // directory holding odrcoord, odrserver and perfbench
	work     string // scratch root inside the checkout
	nproc    int

	// Input sizes (generator file populations); the benchmark's own
	// tests shrink them.
	weekFiles  int
	serveFiles int
}

func run(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var c config
	var trace int
	fs.StringVar(&c.workload, "workload", "", "week or coord")
	fs.Uint64Var(&c.seed, "seed", 1, "workload seed (inputs are a function of it)")
	fs.Float64Var(&c.seconds, "seconds", 15, "measured seconds per run")
	fs.IntVar(&trace, "trace", 0, "1 runs the traced per-layer battery instead of the end-to-end run")
	fs.StringVar(&c.bin, "bin", ".bench_build/bin", "directory with the built binaries")
	fs.StringVar(&c.work, "work", ".bench_build", "scratch directory for traces, references and spans")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if _, ok := workloads[c.workload]; !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown -workload %q (want week or coord)\n", c.workload)
		return 2
	}
	if trace != 0 && trace != 1 {
		fmt.Fprintf(os.Stderr, "perfbench: -trace must be 0 or 1, got %d\n", trace)
		return 2
	}
	if c.seconds <= 0 {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be positive")
		return 2
	}
	c.traced = trace == 1
	c.nproc = runtime.NumCPU()
	c.weekFiles, c.serveFiles = weekFiles, serveFiles
	for _, name := range []string{"odrcoord", "odrserver", "perfbench"} {
		if _, err := os.Stat(filepath.Join(c.bin, name)); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v (build with perfbench/run.sh)\n", err)
			return 2
		}
	}
	if err := os.MkdirAll(filepath.Join(c.work, "tmp"), 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}

	host := newHostRecord()
	var (
		res *result
		err error
	)
	if c.traced {
		res, err = runTraced(c)
	} else {
		res, err = workloads[c.workload](c)
	}
	host.finish()
	if res == nil {
		// No run took place (environment or set-up failure): no result.
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defs := endToEnd
	if c.traced {
		defs = perLayer
		res.metric("host.steal_pct", host.StealPct, "%")
	}
	if err == nil {
		err = res.checkNames(defs)
	}
	if err != nil {
		res.fail(err)
	}
	hostJSON, _ := json.Marshal(host)
	fmt.Printf("host: %s\n", hostJSON)
	res.printHuman(os.Stdout)
	line, mErr := json.Marshal(res)
	if mErr != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", mErr)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// workloads maps each workload name to its end-to-end run.
var workloads = map[string]func(config) (*result, error){
	"week":  runWeek,
	"coord": runCoord,
}

// errCheck marks an output-check failure (as opposed to an environment
// failure that prevented the run).
var errCheck = errors.New("output check failed")
