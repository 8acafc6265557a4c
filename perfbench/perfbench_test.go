package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"runtime/pprof"
	"testing"
	"time"

	"snapify/internal/simclock"
)

var unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

func TestMetricNamesAndUnits(t *testing.T) {
	seen := map[string]bool{}
	for _, d := range append(append([]decl(nil), endToEnd...), perLayer...) {
		if !nameRE.MatchString(d.name) || len(d.name) > 64 {
			t.Errorf("metric name %q does not match %s", d.name, nameRE)
		}
		if !unitRE.MatchString(d.unit) {
			t.Errorf("metric %s: unit %q does not match %s", d.name, d.unit, unitRE)
		}
		if seen[d.name] {
			t.Errorf("metric %s declared twice", d.name)
		}
		seen[d.name] = true
		if len(d.on) == 0 {
			t.Errorf("metric %s is measured on no workload", d.name)
		}
	}
	for _, d := range endToEnd {
		if len(d.on) != len(workloadNames) {
			t.Errorf("end-to-end metric %s must be measured on every workload", d.name)
		}
	}
	for _, l := range cpuLayers {
		if !seen["cpu."+l+"_share"] {
			t.Errorf("profile bucket %s has no declared cpu.%s_share metric", l, l)
		}
	}
}

// TestBenchmarkJSONMatchesDeclarations keeps BENCHMARK.json and the
// metrics the program prints in step.
func TestBenchmarkJSONMatchesDeclarations(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type jmetric struct {
		Name, Unit string
	}
	var bj struct {
		Workloads []struct{ Name string }
		EndToEnd  []jmetric `json:"end_to_end"`
		PerLayer  []jmetric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []jmetric, want []decl) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program prints %d", kind, len(got), len(want))
			return
		}
		for i, d := range want {
			if got[i].Name != d.name || got[i].Unit != d.unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the program prints %s (%s)", kind, i, got[i].Name, got[i].Unit, d.name, d.unit)
			}
		}
	}
	for _, w := range bj.Workloads {
		check(w.Name+" end_to_end", bj.EndToEnd, printed(endToEnd, w.Name))
		check(w.Name+" per_layer", bj.PerLayer, printed(perLayer, w.Name))
	}
}

func TestBlockTailIsMedianOfBlockTails(t *testing.T) {
	// Five blocks of 100: block b holds 1..100 scaled by b+1, except that
	// block 0 ends in a burst of twenty samples at 1000, which lifts its
	// own tail and the whole run's to 1000.
	var xs []float64
	for b := range 5 {
		for i := range tailBlock {
			x := float64((b + 1) * (i + 1))
			if b == 0 && i >= tailBlock-2*tailSamples {
				x = 1000
			}
			xs = append(xs, x)
		}
	}
	whole, _, _ := tail(xs)
	if whole != 1000 {
		t.Fatalf("the whole run's tail = %v, want the burst, 1000", whole)
	}
	// Block tails (p90): 1000, 180, 270, 360, 450; the median is 360.
	v, pct, blocks, ok := blockTail(xs)
	if !ok || blocks != 5 || v != 360 || pct != 90 {
		t.Fatalf("block tail = %v (p%v over %d blocks, ok %v), want 360 (p90 over 5)", v, pct, blocks, ok)
	}
	// A remainder joins the blocks: 599 samples still make five.
	if _, pct, blocks, ok := blockTail(append(xs, xs[:99]...)); !ok || blocks != 5 || pct < 90 {
		t.Fatalf("599 samples: p%v over %d blocks (ok %v), want p90 or above over 5", pct, blocks, ok)
	}
}

func TestTailHasTenSamplesBeyond(t *testing.T) {
	var xs []float64
	for i := 40; i >= 1; i-- {
		xs = append(xs, float64(i))
	}
	v, pct, ok := tail(xs)
	if !ok || v != 30 || pct != 75 {
		t.Fatalf("tail of 1..40 = %v (p%v, ok %v), want 30 (p75)", v, pct, ok)
	}
	beyond := 0
	for _, x := range xs {
		if x > v {
			beyond++
		}
	}
	if beyond != tailSamples {
		t.Fatalf("%d samples beyond the tail, want %d", beyond, tailSamples)
	}
	v, pct, ok = tail(xs[:11])
	if !ok || v != 30 || pct != 100.0/11 {
		t.Fatalf("tail of 11 samples = %v (p%v, ok %v), want the smallest", v, pct, ok)
	}
	if _, _, ok := tail(xs[:10]); ok {
		t.Fatal("10 samples cannot have a percentile with 10 beyond it")
	}
	if v, pct, blocks, ok := blockTail(xs); !ok || v != 30 || pct != 75 || blocks != 1 {
		t.Fatalf("block tail of 40 samples = %v (p%v, %d blocks, ok %v), want the whole tail", v, pct, blocks, ok)
	}
	if m := median([]float64{3, 1, 2, 10}); m != 2.5 {
		t.Fatalf("median = %v, want 2.5", m)
	}
}

// tinyData is a data-path run small enough for a unit test, with every
// check on.
func tinyData(workload string) dpConfig {
	return dpConfig{
		workload: workload, imageBytes: 8 * simclock.MiB, seed: 3,
		seconds: 0, minOps: 3, setups: 2, traced: true,
	}
}

// tinyFleet is the repository's smoke-scale fleet at the workload's
// oversubscription.
func tinyFleet() fleetConfig {
	c := defaultFleet(42, 0)
	c.hosts, c.jobs, c.tenants, c.queueDepth = 12, 240, 4, 128
	c.setups, c.minSteps = 2, 1
	return c
}

// checkEmitted asserts a run passes its checks and prints every declared
// metric, with its unit, in both modes.
func checkEmitted(t *testing.T, workload string, res *runResult) {
	t.Helper()
	if len(res.problems) > 0 || res.failed > 0 || res.attempted == 0 {
		t.Fatalf("%s: %d of %d failed; problems: %v", workload, res.failed, res.attempted, res.problems)
	}
	for _, mode := range []struct {
		decls  []decl
		values map[string]float64
	}{{endToEnd, res.e2e}, {perLayer, res.layer}} {
		ms, err := collect(mode.decls, workload, mode.values)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range printed(mode.decls, workload) {
			m, ok := ms[d.name]
			if !ok || m.Unit != d.unit {
				t.Errorf("%s: metric %s printed as %+v, want unit %s", workload, d.name, m, d.unit)
			}
		}
	}
	for _, d := range endToEnd {
		if res.e2e[d.name] <= 0 {
			t.Errorf("%s: end-to-end metric %s = %v, want > 0", workload, d.name, res.e2e[d.name])
		}
	}
}

func TestSmokeDataPath(t *testing.T) {
	out := t.TempDir()
	for _, w := range []string{wSwapStore, wSwapPlain, wMigrate} {
		res, err := runDataPath(tinyData(w), out)
		if err != nil {
			t.Fatalf("%s: %v", w, err)
		}
		checkEmitted(t, w, res)
		if w == wMigrate && res.layer["core.precopy_rounds"] < 1 {
			t.Errorf("%s: no pre-copy rounds", w)
		}
		if w == wSwapPlain && res.layer["snapstore.chunks_put_per_op"] != 0 {
			t.Errorf("%s: the plain path put %v chunks per op into the store", w, res.layer["snapstore.chunks_put_per_op"])
		}
	}
}

// TestSmokeFleet fails on the current fleetd: its serveWaiters accepts a
// waiter by card index alone, so at 200% oversubscription a preempted
// job's stale waiter entry charges residency to its old host's card and
// the residency audit sees a card go negative.
func TestSmokeFleet(t *testing.T) {
	res, err := runFleet(tinyFleet(), true, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	checkEmitted(t, wFleet, res)
}

// TestGateRejectsWrongReference shows the correctness gate fails when
// the process's checksum disagrees with the undisturbed reference.
func TestGateRejectsWrongReference(t *testing.T) {
	cfg := tinyData(wSwapPlain)
	cfg.setups = 1
	s, _, err := setup(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.close()
	ph, err := s.loop(false)
	if err != nil {
		t.Fatal(err)
	}
	out, err := s.finish(ph.recs)
	if err != nil {
		t.Fatal(err)
	}
	if bad := out.check(); len(bad) > 0 {
		t.Fatalf("honest run failed the gate: %v", bad)
	}
	out.refChecksum ^= 1
	if bad := out.check(); len(bad) == 0 {
		t.Fatal("the gate accepted a checksum that differs from the reference")
	}
}

// TestTimingDecoratorChangesNoDecision replays one trace over the bare
// model backend and over the timing decorator.
func TestTimingDecoratorChangesNoDecision(t *testing.T) {
	c := tinyFleet()
	specs := c.trace()
	run := func(tb *timedBackend) fleetVirtual {
		ctl, err := c.newController(specs, tb, nil)
		if err != nil {
			t.Fatal(err)
		}
		ph := &fleetPhase{}
		if err := c.replay(ctl, tb, ph); err != nil {
			t.Fatal(err)
		}
		return ph.replays[0]
	}
	bare := run(nil)
	tb := &timedBackend{}
	timed := run(tb)
	if bare != timed {
		t.Fatalf("decorated replay %+v differs from bare %+v", timed, bare)
	}
	if tb.linkCalls == 0 || tb.total <= 0 {
		t.Fatalf("decorator counted nothing: %+v", tb)
	}
}

func TestLayerOfInnermostRepositoryFrame(t *testing.T) {
	known := map[string]bool{}
	for _, l := range cpuLayers {
		known[l] = true
	}
	cases := []struct {
		stack []string
		want  string
	}{
		{[]string{"runtime.memmove", "snapify/internal/blob.(*Buffer).WriteAt", "snapify/internal/blcr.restartFrom"}, "blob"},
		{[]string{"crypto/sha256.block", "snapify/internal/snapstore.Digest", "snapify/internal/coi.(*Daemon).handleConn"}, "snapstore"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "gc"},
		{[]string{"runtime.mallocgc", "snapify/internal/obs/analyze.CriticalPath"}, "other"},
		{[]string{"runtime.futex", "runtime.findRunnable"}, "other"},
	}
	for _, c := range cases {
		if got := layerOf(c.stack, known); got != c.want {
			t.Errorf("layerOf(%v) = %s, want %s", c.stack, got, c.want)
		}
	}
}

var sink uint64

func TestDecodeCPUProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	for start := time.Now(); time.Since(start) < 300*time.Millisecond; {
		for i := uint64(0); i < 1e5; i++ {
			sink = sink*31 + i
		}
	}
	pprof.StopCPUProfile()
	samples, err := decodeProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) == 0 {
		t.Fatal("no samples in 300 ms of busy loop")
	}
	found := false
	for _, s := range samples {
		for _, fn := range s.stack {
			if fn == "snapify/perfbench.TestDecodeCPUProfile" {
				found = true
			}
		}
	}
	if !found {
		t.Fatal("the busy test function is on no decoded stack")
	}
	shares, err := layerShares(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var total float64
	for _, v := range shares {
		total += v
	}
	if total < 0.999 || total > 1.001 {
		t.Fatalf("layer shares sum to %v, want 1", total)
	}
}
