// Command whisperbench is the Whisper benchmark: it deploys the system
// in-process, drives one workload for a fixed time with closed-loop
// clients, checks every reply against its own model of the data, and
// prints the measured metrics as the last line of its output, one JSON
// object:
//
//	{"correct": true, "attempted": 1000, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 the
// per-layer ledger from a traced run. See README.md for the workloads,
// the metrics and how they relate.
//
// Usage (from the repository root, via the build script):
//
//	bash perfbench/run.sh --workload write --seed 1 --seconds 25 --trace 0
//	bash perfbench/run.sh --steady 10 --workload write --seconds 25
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"
)

// result is the benchmark's output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// Problems lists the failed checks.
	Problems []string `json:"-"`
}

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("whisperbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name    = fs.String("workload", "", "workload: "+workloadNames())
		seed    = fs.Int64("seed", 1, "input seed")
		seconds = fs.Int("seconds", 25, "measured seconds")
		traced  = fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
		steady  = fs.Int("steady", 0, "steadiness mode: run the workload this many times (seeds 1..n) and print each metric's median, quartiles and spread")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := findWorkload(*name)
	if !ok || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(stderr, "whisperbench: need -workload (%s), -seconds >= 1 and -trace 0|1\n", workloadNames())
		return 2
	}
	if *steady > 0 {
		return steadiness(w, *steady, *seconds, *traced, stdout, stderr)
	}

	// The run must end on its own; a hang in teardown must not outlive
	// the time the run was promised.
	limit := time.Duration(*seconds)*time.Second*2 + 90*time.Second
	watchdog := time.AfterFunc(limit, func() {
		fmt.Fprintf(stderr, "whisperbench: run did not finish within %v\n", limit)
		os.Exit(1)
	})
	defer watchdog.Stop()

	ctx := context.Background()
	res, err := run(ctx, runConfig{w: w, seed: *seed, window: time.Duration(*seconds) * time.Second, trace: *traced == 1}, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "whisperbench: %s seed %d: %v\n", w.name, *seed, err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "whisperbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, "|")
}

// runConfig is one run's settings.
type runConfig struct {
	w      workload
	seed   int64
	window time.Duration
	trace  bool
	inj    *injector
}

// run executes one workload and returns its result. An error means the
// run failed as a whole (set-up, or the group not returning to
// readiness); failed checks make the result incorrect instead.
func run(ctx context.Context, cfg runConfig, log io.Writer) (*result, error) {
	r := &runner{w: cfg.w, seed: cfg.seed, m: newModel(cfg.seed), inj: cfg.inj}
	res := &result{}
	if !cfg.trace {
		c, setups, err := r.setup(ctx, setupRounds, false)
		if err != nil {
			return nil, err
		}
		load, crash, err := r.measure(ctx, c, cfg.window, "run", false, true)
		if err != nil {
			return nil, err
		}
		res.Metrics = endToEnd(append(setups, crash.setups...), load, crash)
		res.Attempted, res.Failed = load.attempted+crash.attempted, load.failed+crash.failed
		fmt.Fprintf(log, "%s seed %d: setups %v; %s\n", cfg.w.name, cfg.seed, setups, describe(load, crash))
	} else {
		// The untraced half gives the tail, the throughput, the peak RSS
		// and the baseline of the tracing overhead.
		c, _, err := r.setup(ctx, 1, false)
		if err != nil {
			return nil, err
		}
		plain, plainCrash, err := r.measure(ctx, c, cfg.window/2, "plain", false, false)
		if err != nil {
			return nil, err
		}
		if c, _, err = r.setup(ctx, 1, true); err != nil {
			return nil, err
		}
		load, crash, err := r.measure(ctx, c, cfg.window/2, "traced", true, true)
		if err != nil {
			return nil, err
		}
		res.Metrics = perLayer(plain, load, crash)
		res.Attempted = plain.attempted + plainCrash.attempted + load.attempted + crash.attempted
		res.Failed = plain.failed + plainCrash.failed + load.failed + crash.failed
		fmt.Fprintf(log, "%s seed %d traced: %s\n", cfg.w.name, cfg.seed, describe(load, crash))
	}
	res.Problems = r.problems
	res.Correct = len(r.problems) == 0
	for _, p := range r.problems {
		fmt.Fprintf(log, "CHECK FAILED: %s\n", p)
	}
	return res, nil
}

// setup deploys and warms the system rounds times, keeping the last
// deployment and returning the time each round took. A failed round
// fails the run; it is not retried.
func (r *runner) setup(ctx context.Context, rounds int, traced bool) (*cluster, []time.Duration, error) {
	var times []time.Duration
	for i := 1; ; i++ {
		start := time.Now()
		c, err := deploy(ctx, r.w, r.m, traced, r.inj)
		if err == nil {
			if err = r.warm(ctx, c); err != nil {
				c.close()
			}
		}
		if err != nil {
			return nil, nil, fmt.Errorf("setup %d of %d failed: %w", i, rounds, err)
		}
		times = append(times, time.Since(start))
		if i >= rounds {
			return c, times, nil
		}
		c.close()
	}
}

// checkCluster runs the whole-deployment checks: on journaled
// workloads every acknowledged payment was executed exactly once and no
// payment was executed twice; every follower read observed at least its
// read index.
func (r *runner) checkCluster(c *cluster, phases ...*phaseResult) {
	if r.w.journal {
		for _, p := range phases {
			if p == nil {
				continue
			}
			for _, key := range p.ackedKeys {
				if n := c.exec.executions(key); n != 1 {
					r.fail("payment %s was acknowledged but executed %d times", key, n)
				}
			}
		}
		if dups := c.exec.duplicates(5); len(dups) > 0 {
			r.fail("payments executed more than once: %v", dups)
		}
	}
	c.reads.mu.Lock()
	violations := append([]string(nil), c.reads.violations...)
	c.reads.mu.Unlock()
	for _, v := range violations {
		r.fail("read index: %s", v)
	}
}

// describe renders a one-line human summary of a run.
func describe(load *phaseResult, crash *crashStats) string {
	return fmt.Sprintf("load %d ops in %v (%d retries); %d crashes, recovery %v, election %v",
		load.ops, load.elapsed.Round(time.Millisecond), load.retries, crash.crashes,
		roundAll(crash.recovery), roundAll(crash.election))
}

func roundAll(ds []time.Duration) []time.Duration {
	out := make([]time.Duration, len(ds))
	for i, d := range ds {
		out[i] = d.Round(100 * time.Microsecond)
	}
	return out
}
