// Command perfbench is the repository's end-to-end benchmark. It runs one
// named workload for a fixed time on the host clock, checks that the
// program's outputs are correct, and prints one JSON object as the last
// line of its standard output:
//
//	perfbench --workload swap-store --seed 1 --seconds 36 --trace 0
//
// With --trace 0 it prints the end-to-end metrics of an untimed set-up
// and one timed phase. With --trace 1 it runs an untraced phase and then
// a traced one (CPU profile, per-call timing, counter reads around every
// operation) and prints the per-layer metrics; the CPU profile, the
// virtual-clock Chrome trace and its critical-path blame land in --out.
// README.md in this directory describes the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"syscall"
	"time"

	"snapify/internal/simclock"
)

// Full-scale sizes. A 32 MiB image keeps a live migration under half a
// second of host time, so a 36-second phase holds enough operations for
// a tail percentile with ten samples beyond it.
const (
	imageBytes   = 32 * simclock.MiB
	dataMinOps   = 12
	dataSetups   = 3
	fleetSetups  = 5
	fleetMinStep = 40
)

// runResult is one run's outcome before printing.
type runResult struct {
	attempted, failed int
	// problems lists every failed correctness check.
	problems []string
	e2e      map[string]float64
	layer    map[string]float64
	// notes are human-readable lines printed before the JSON line.
	notes []string
}

func (r *runResult) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

func main() {
	workload := flag.String("workload", "", "workload to run: swap-store, swap-plain, migrate-live or fleet-oversub")
	seed := flag.Uint64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 30, "length of each timed phase, in host seconds")
	trace := flag.Int("trace", 0, "1 prints per-layer metrics from a traced run; 0 prints end-to-end metrics")
	out := flag.String("out", ".bench_build/perfbench-out", "directory for the traced run's profile and trace files")
	flag.Parse()
	if *trace != 0 && *trace != 1 {
		fail(fmt.Errorf("--trace must be 0 or 1, not %d", *trace))
	}
	traced := *trace == 1

	var res *runResult
	var err error
	switch *workload {
	case wSwapStore, wSwapPlain, wMigrate:
		res, err = runDataPath(dpConfig{
			workload: *workload, imageBytes: imageBytes, seed: *seed,
			seconds: *seconds, minOps: dataMinOps, setups: dataSetups, traced: traced,
		}, *out)
	case wFleet:
		res, err = runFleet(defaultFleet(*seed, *seconds), traced, *out)
	default:
		err = fmt.Errorf("unknown workload %q; want one of %v", *workload, workloadNames)
	}
	if err != nil {
		fail(err)
	}
	decls, values := endToEnd, res.e2e
	if traced {
		decls, values = perLayer, res.layer
	}
	ms, err := collect(decls, *workload, values)
	if err != nil {
		fail(err)
	}
	for _, n := range res.notes {
		fmt.Println(n)
	}
	for _, p := range res.problems {
		fmt.Println("CHECK FAILED:", p)
	}
	line, err := json.Marshal(result{
		Correct:   len(res.problems) == 0 && res.failed == 0,
		Attempted: res.attempted,
		Failed:    res.failed,
		Metrics:   ms,
	})
	if err != nil {
		fail(err)
	}
	fmt.Println(string(line))
	if len(res.problems) > 0 {
		os.Exit(1)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(2)
}

// peakRSSMiB is the process's maximum resident set size so far.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// hostMetrics fills the end-to-end metrics every workload shares.
func hostMetrics(res *runResult, walls []float64, wall time.Duration, virtual simclock.Duration, allocated uint64, setup []time.Duration) {
	v, pct, blocks, ok := blockTail(walls)
	if !ok {
		res.note("op_wall_tail_ms: only %d ops, reporting the maximum", len(walls))
	}
	whole, wholePct, _ := tail(walls)
	res.note("op_wall_tail_ms = %.4f ms is the median over %d blocks of %d+ consecutive ops of each block's p%.1f; the whole run's p%.1f of %d ops is %.4f ms",
		v, blocks, len(walls)/blocks, pct, wholePct, len(walls), whole)
	setupS := make([]float64, len(setup))
	for i, d := range setup {
		setupS[i] = d.Seconds()
	}
	res.e2e = map[string]float64{
		"op_wall_p50_ms":   median(walls),
		"op_wall_tail_ms":  v,
		"sim_speedup_x":    ratio(virtual.Seconds(), wall.Seconds()),
		"alloc_mib_per_op": ratio(float64(allocated), float64(len(walls))) / float64(simclock.MiB),
		"peak_rss_mib":     peakRSSMiB(),
		"setup_s":          median(setupS),
	}
}

// medianOf returns the median of f over recs.
func medianOf[T any](recs []T, f func(T) float64) float64 {
	xs := make([]float64, len(recs))
	for i, r := range recs {
		xs[i] = f(r)
	}
	return median(xs)
}

// writeOut writes one traced-run artifact into dir.
func writeOut(res *runResult, dir, name string, data []byte) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		res.note("could not create %s: %v", dir, err)
		return
	}
	path := dir + "/" + name
	if err := os.WriteFile(path, data, 0o644); err != nil {
		res.note("could not write %s: %v", path, err)
		return
	}
	res.note("wrote %s", path)
}
