package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sort"
	"strconv"
)

// quartiles returns the first quartile, the median and the third
// quartile of xs by the exclusive method (Python's statistics.quantiles
// with n=4, its default method). It needs at least two values.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	m := n + 1
	q := make([]float64, 3)
	for i := 1; i <= 3; i++ {
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2]
}

// steadiness runs the workload once per seed 1..runs, each in its own
// process, and prints for every metric its median, quartiles and the
// spread (q3-q1)/median, plus each run's failed share.
func steadiness(w workload, runs, seconds, traced int, stdout, stderr io.Writer) int {
	if runs < 2 {
		fmt.Fprintln(stderr, "whisperbench: -steady needs at least 2 runs")
		return 2
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "whisperbench: %v\n", err)
		return 1
	}
	values := make(map[string][]float64)
	units := make(map[string]string)
	for seed := 1; seed <= runs; seed++ {
		cmd := exec.Command(self, "-workload", w.name, "-seed", strconv.Itoa(seed),
			"-seconds", strconv.Itoa(seconds), "-trace", strconv.Itoa(traced))
		var out bytes.Buffer
		cmd.Stdout = &out
		cmd.Stderr = stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(stderr, "whisperbench: seed %d: %v\n", seed, err)
			return 1
		}
		var last string
		sc := bufio.NewScanner(&out)
		for sc.Scan() {
			last = sc.Text()
		}
		var res result
		if err := json.Unmarshal([]byte(last), &res); err != nil {
			fmt.Fprintf(stderr, "whisperbench: seed %d: bad result line %q: %v\n", seed, last, err)
			return 1
		}
		share := 0.0
		if res.Attempted > 0 {
			share = float64(res.Failed) / float64(res.Attempted)
		}
		fmt.Fprintf(stdout, "seed %d: correct=%v attempted=%d failed=%d (share %.6f)\n",
			seed, res.Correct, res.Attempted, res.Failed, share)
		for name, m := range res.Metrics {
			values[name] = append(values[name], m.Value)
			units[name] = m.Unit
		}
	}
	names := make([]string, 0, len(values))
	for name := range values {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintf(stdout, "%-36s %8s %14s %14s %14s %8s\n", "metric", "unit", "q1", "median", "q3", "spread")
	for _, name := range names {
		q1, q2, q3 := quartiles(values[name])
		spread := 0.0
		if q2 != 0 {
			spread = (q3 - q1) / q2
		}
		fmt.Fprintf(stdout, "%-36s %8s %14.6g %14.6g %14.6g %8.4f\n", name, units[name], q1, q2, q3, spread)
	}
	return 0
}
