package main

import (
	"bytes"
	"fmt"
	"runtime"
	"runtime/pprof"
	"time"

	"snapify/internal/experiments"
	"snapify/internal/fleetd"
	"snapify/internal/obs"
	"snapify/internal/obs/analyze"
	"snapify/internal/simclock"
)

// The fleet-oversub workload drives fleetd's controller over the cost
// model backend: a seeded bursty trace arrives open-loop in virtual
// time against a fleet at 200% memory oversubscription, with one
// evacuation wave in the middle of the arrival storm, the shape of the
// repository's fleet benchmark. Host-side it replays as fast as it can,
// one RunUntil step per fixed virtual slice. A phase replays the whole
// trace until its time is up; every replay must reach the same virtual
// results.

// fleetConfig sizes one fleet run.
type fleetConfig struct {
	hosts      int
	jobs       int
	tenants    int
	queueDepth int
	cardMem    int64
	oversubPct int
	seed       uint64
	// slice is the virtual time one RunUntil step advances.
	slice   simclock.Duration
	seconds float64
	setups  int
	// minSteps keeps a phase going until the tail percentile is defined.
	minSteps int
}

// Trace shape and evacuation timing of the repository's fleet benchmark
// (unexported there): thinks dwarf the swap cycle, so evicting thinkers
// pays.
const (
	fleetBurstScale   = 10
	fleetThinkScale   = 400
	fleetEvacAt       = 500 * time.Millisecond
	fleetEvacDeadline = 120 * time.Second
	fleetEvacHost     = "h000"
)

// maxVirtual bounds a replay: a controller that has not finished every
// job by then is wedged.
const maxVirtual = 10 * time.Minute

func (c fleetConfig) trace() []fleetd.JobSpec {
	return fleetd.GenerateTrace(fleetd.TraceConfig{
		Seed: c.seed, Jobs: c.jobs, Tenants: c.tenants, CardMem: c.cardMem,
		BurstScale: fleetBurstScale, ThinkScale: fleetThinkScale,
	})
}

// newController builds one replay's controller over a fresh model
// backend, decorated with timing when tb is not nil. The controller
// records its own virtual-clock spans only when o is not nil.
func (c fleetConfig) newController(specs []fleetd.JobSpec, tb *timedBackend, o *obs.Obs) (*fleetd.Controller, error) {
	var be fleetd.Backend = fleetd.NewModelBackend(fleetd.ModelOptions{
		Hosts: c.hosts, CardsPerHost: 1, CardMem: c.cardMem,
	})
	if tb != nil {
		tb.inner = be
		be = tb
	}
	opts := fleetd.Options{OversubPct: c.oversubPct, QueueDepth: c.queueDepth, Trace: o != nil}
	if o == nil {
		o = obs.New()
	}
	ctl := fleetd.New(opts, be, o)
	if err := ctl.SubmitTrace(specs); err != nil {
		return nil, err
	}
	ctl.ScheduleEvacuation(fleetEvacAt, fleetEvacHost, fleetEvacDeadline)
	return ctl, nil
}

// fleetVirtual is one replay's virtual-clock outcome. Replays of one
// trace must agree on every field.
type fleetVirtual struct {
	stats     fleetd.Stats
	util      int64
	waitP99   simclock.Duration
	swapP99   simclock.Duration
	heapCmps  int64
	completed bool
}

func virtualOf(ctl *fleetd.Controller) fleetVirtual {
	st := ctl.Stats()
	return fleetVirtual{
		stats:     st,
		util:      ctl.UtilizationPct(),
		waitP99:   fleetd.Percentile(ctl.QueueWaits(), 99),
		swapP99:   fleetd.Percentile(ctl.SwapLatencies(), 99),
		heapCmps:  ctl.EventComparisons(),
		completed: st.Completed+st.Rejected == st.Submitted,
	}
}

// fleetStep is one RunUntil step's host time, and the part of it spent
// inside the backend (decorated phases only).
type fleetStep struct {
	wall, backend time.Duration
}

// fleetPhase is one timed phase: whole replays until the time is up.
type fleetPhase struct {
	steps   []fleetStep
	replays []fleetVirtual
	// problems holds the first maxReported residency violations the
	// audit found; violations counts them all.
	problems   []string
	violations int
	wall       time.Duration
	virtual    simclock.Duration
	allocated  uint64
	backend    *timedBackend
}

// replay runs one controller to completion, one slice per step, and
// audits card residency after every step.
func (c fleetConfig) replay(ctl *fleetd.Controller, tb *timedBackend, ph *fleetPhase) error {
	for until := c.slice; ; until += c.slice {
		var b0 time.Duration
		if tb != nil {
			b0 = tb.total
		}
		t := time.Now()
		err := ctl.RunUntil(until)
		st := fleetStep{wall: time.Since(t)}
		if tb != nil {
			st.backend = tb.total - b0
		}
		ph.steps = append(ph.steps, st)
		if err != nil {
			return fmt.Errorf("step to %v: %w", until, err)
		}
		for _, bad := range auditCards(ctl) {
			if ph.violations < maxReported {
				ph.problems = append(ph.problems, bad)
			}
			ph.violations++
		}
		ph.virtual += c.slice
		v := virtualOf(ctl)
		if v.completed {
			break
		}
		if until > maxVirtual {
			// A wedged controller: check reports the unfinished jobs.
			ph.problems = append(ph.problems, fmt.Sprintf("fleet wedged: %d of %d jobs unfinished at %v",
				v.stats.Submitted-v.stats.Completed-v.stats.Rejected, v.stats.Submitted, until))
			break
		}
	}
	// Whatever is left after the last completion (idle serve retries,
	// the end of the evacuation wave) changes no result.
	if err := ctl.Run(); err != nil {
		return err
	}
	ph.replays = append(ph.replays, virtualOf(ctl))
	return nil
}

// maxReported bounds how many residency violations are spelled out; a
// leaked reservation repeats on every later step.
const maxReported = 5

// auditCards checks 0 <= resident <= capacity on every card.
func auditCards(ctl *fleetd.Controller) []string {
	var bad []string
	for _, h := range ctl.HostStatuses() {
		for i, cd := range h.Cards {
			if cd.ResidentBytes < 0 || cd.ResidentBytes > cd.CapacityBytes {
				bad = append(bad, fmt.Sprintf("%s card %d at %v: resident %d of capacity %d",
					h.Host, i, ctl.Now(), cd.ResidentBytes, cd.CapacityBytes))
			}
		}
	}
	return bad
}

// loop replays the trace until the phase has run c.seconds and c.minSteps
// steps. first, when not nil, is an undecorated controller ready from
// set-up; later ones are built inside the phase, outside any step, and
// carry the timing decorator when decorated is set.
func (c fleetConfig) loop(specs []fleetd.JobSpec, first *fleetd.Controller, decorated bool) (*fleetPhase, error) {
	ph := &fleetPhase{}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	deadline := time.Duration(c.seconds * float64(time.Second))
	ctl := first
	for len(ph.replays) == 0 || time.Since(start) < deadline || len(ph.steps) < c.minSteps {
		var tb *timedBackend
		if ctl == nil {
			if decorated {
				tb = &timedBackend{}
			}
			var err error
			if ctl, err = c.newController(specs, tb, nil); err != nil {
				return nil, err
			}
		}
		if err := c.replay(ctl, tb, ph); err != nil {
			return nil, err
		}
		if tb != nil {
			ph.backend = ph.backend.add(tb)
		}
		ctl = nil
	}
	ph.wall = time.Since(start)
	runtime.ReadMemStats(&ms1)
	ph.allocated = ms1.TotalAlloc - ms0.TotalAlloc
	return ph, nil
}

// check is the fleet correctness gate: jobs are conserved, everything
// admitted completes, residency stayed within capacity, and every
// replay of the trace reached the same virtual results as ref.
func (ph *fleetPhase) check(ref fleetVirtual) []string {
	bad := append([]string(nil), ph.problems...)
	if ph.violations > len(ph.problems) {
		bad = append(bad, fmt.Sprintf("%d more card-step residency violations", ph.violations-len(ph.problems)))
	}
	for i, v := range ph.replays {
		st := v.stats
		if st.Admitted+st.Rejected != st.Submitted {
			bad = append(bad, fmt.Sprintf("replay %d: admitted %d + rejected %d != %d jobs", i, st.Admitted, st.Rejected, st.Submitted))
		}
		if st.Completed != st.Admitted {
			bad = append(bad, fmt.Sprintf("replay %d: completed %d of %d admitted", i, st.Completed, st.Admitted))
		}
		if v != ref {
			bad = append(bad, fmt.Sprintf("replay %d: virtual results differ from the reference replay (%+v vs %+v)", i, v.stats, ref.stats))
		}
	}
	return bad
}

// timedBackend decorates a fleetd.Backend with host-time accounting. It
// forwards every call unchanged, so the controller's decisions are the
// undecorated ones.
type timedBackend struct {
	inner fleetd.Backend

	total     time.Duration
	linkCalls int64
	linkTime  time.Duration
	swapCalls int64
	swapTime  time.Duration
}

// add accumulates o's counts into b, allocating b when nil.
func (b *timedBackend) add(o *timedBackend) *timedBackend {
	if b == nil {
		b = &timedBackend{}
	}
	b.total += o.total
	b.linkCalls += o.linkCalls
	b.linkTime += o.linkTime
	b.swapCalls += o.swapCalls
	b.swapTime += o.swapTime
	return b
}

func (b *timedBackend) since(t time.Time) time.Duration {
	d := time.Since(t)
	b.total += d
	return d
}

func (b *timedBackend) Topology() []fleetd.HostTopo {
	defer b.since(time.Now())
	return b.inner.Topology()
}

func (b *timedBackend) LinkCost(a, c string, n int64) simclock.Duration {
	t := time.Now()
	d := b.inner.LinkCost(a, c, n)
	b.linkTime += b.since(t)
	b.linkCalls++
	return d
}

func (b *timedBackend) Launch(j *fleetd.Job) (simclock.Duration, error) {
	defer b.since(time.Now())
	return b.inner.Launch(j)
}

func (b *timedBackend) RunBurst(j *fleetd.Job) error {
	defer b.since(time.Now())
	return b.inner.RunBurst(j)
}

func (b *timedBackend) SwapOut(j *fleetd.Job) (simclock.Duration, error) {
	t := time.Now()
	d, err := b.inner.SwapOut(j)
	b.swapTime += b.since(t)
	b.swapCalls++
	return d, err
}

func (b *timedBackend) SwapIn(j *fleetd.Job, from string) (simclock.Duration, error) {
	t := time.Now()
	d, err := b.inner.SwapIn(j, from)
	b.swapTime += b.since(t)
	b.swapCalls++
	return d, err
}

func (b *timedBackend) Checkpoint(j *fleetd.Job) (simclock.Duration, error) {
	defer b.since(time.Now())
	return b.inner.Checkpoint(j)
}

func (b *timedBackend) Holders(j *fleetd.Job) []string {
	defer b.since(time.Now())
	return b.inner.Holders(j)
}

func (b *timedBackend) Migrate(j *fleetd.Job, dstHost string, dstCard int) (simclock.Duration, error) {
	defer b.since(time.Now())
	return b.inner.Migrate(j, dstHost, dstCard)
}

func (b *timedBackend) Recover(j *fleetd.Job, dstHost string, dstCard int) (simclock.Duration, error) {
	defer b.since(time.Now())
	return b.inner.Recover(j, dstHost, dstCard)
}

func (b *timedBackend) Finish(j *fleetd.Job) error {
	defer b.since(time.Now())
	return b.inner.Finish(j)
}

func (b *timedBackend) HostKilled(name string) {
	defer b.since(time.Now())
	b.inner.HostKilled(name)
}

// defaultFleet is the full-scale fleet: the 200% row of the repository's
// fleet benchmark (120 hosts, 2400 jobs, demand about 3.6x the fleet's
// commit capacity), stepped 100 virtual milliseconds at a time.
func defaultFleet(seed uint64, seconds float64) fleetConfig {
	p := experiments.DefaultFleetParams()
	return fleetConfig{
		hosts: p.Hosts, jobs: p.Jobs, tenants: p.Tenants, queueDepth: p.QueueDepth,
		cardMem: p.CardMem, oversubPct: 200, seed: seed,
		slice: 100 * time.Millisecond, seconds: seconds,
		setups: fleetSetups, minSteps: fleetMinStep,
	}
}

// runFleet runs the fleet workload: set-up c.setups times, an untraced
// phase over the bare model backend, and with traced a phase over the
// timing decorator plus one replay with the controller's span trace on.
// Every replay must reach the untraced phase's first virtual results.
func runFleet(c fleetConfig, traced bool, outDir string) (*runResult, error) {
	res := &runResult{}
	var specs []fleetd.JobSpec
	var first *fleetd.Controller
	var setups []time.Duration
	for i := 0; i < c.setups; i++ {
		t := time.Now()
		specs = c.trace()
		ctl, err := c.newController(specs, nil, nil)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t))
		first = ctl
	}
	untraced, err := c.loop(specs, first, false)
	if err != nil {
		return nil, err
	}
	ref := untraced.replays[0]
	res.account(untraced, ref)
	walls := untraced.stepWalls()
	hostMetrics(res, walls, untraced.wall, untraced.virtual, untraced.allocated, setups)
	res.note("%s: %d steps over %d replays in %.2f s", wFleet, len(walls), len(untraced.replays), untraced.wall.Seconds())
	if !traced {
		return res, nil
	}

	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, err
	}
	decorated, err := c.loop(specs, nil, true)
	pprof.StopCPUProfile()
	if err != nil {
		return nil, err
	}
	res.account(decorated, ref)
	shares, err := layerShares(prof.Bytes())
	if err != nil {
		return nil, err
	}
	res.layer = fleetLayers(decorated, ref, median(walls), shares)
	writeOut(res, outDir, wFleet+".cpu.pprof", prof.Bytes())
	b := decorated.backend
	res.note("LinkCost: %d calls, %.1f%% of step wall; backend total %.1f%%",
		b.linkCalls, 100*ratio(float64(b.linkTime), float64(decorated.stepTotal())),
		100*ratio(float64(b.total), float64(decorated.stepTotal())))

	o := obs.New()
	ctl, err := c.newController(specs, nil, o)
	if err != nil {
		return nil, err
	}
	spanned := &fleetPhase{}
	if err := c.replay(ctl, nil, spanned); err != nil {
		return nil, err
	}
	res.account(spanned, ref)
	if rep, err := analyze.CriticalPath(o.TracerOf().Spans()); err != nil {
		res.note("critical path: %v", err)
	} else {
		res.note("critical path of one replay: %d spans, %.3f s virtual", rep.Spans, time.Duration(rep.EndToEndNs).Seconds())
		for i, e := range rep.Blame {
			if i == 8 {
				break
			}
			res.note("  %-28s %10.3f vs %6.2f%%", e.Name, time.Duration(e.TotalNs).Seconds(), e.Percent)
		}
	}
	writeOut(res, outDir, wFleet+".trace.json", o.TracerOf().ChromeTrace())
	return res, nil
}

// account adds a phase's jobs to the attempted and failed counts (a
// rejected job, or an admitted one that never completed, failed) and
// its failed checks to the problems.
func (r *runResult) account(ph *fleetPhase, ref fleetVirtual) {
	for _, v := range ph.replays {
		r.attempted += int(v.stats.Submitted)
		r.failed += int(v.stats.Rejected + v.stats.Admitted - v.stats.Completed)
	}
	r.problems = append(r.problems, ph.check(ref)...)
}

func (ph *fleetPhase) stepWalls() []float64 {
	out := make([]float64, len(ph.steps))
	for i, s := range ph.steps {
		out[i] = ms(s.wall)
	}
	return out
}

func (ph *fleetPhase) stepTotal() time.Duration {
	var t time.Duration
	for _, s := range ph.steps {
		t += s.wall
	}
	return t
}

// fleetLayers computes the per-layer metrics of the decorated phase.
func fleetLayers(ph *fleetPhase, ref fleetVirtual, untracedP50 float64, shares map[string]float64) map[string]float64 {
	st := ref.stats
	b := ph.backend
	var placements float64
	for _, v := range ph.replays {
		placements += float64(v.stats.Placements)
	}
	tracedP50 := median(ph.stepWalls())
	m := map[string]float64{
		"vt_makespan_s":       st.Makespan.Seconds(),
		"vt_util_pct":         float64(ref.util) / 100,
		"vt_queue_wait_p99_s": ref.waitP99.Seconds(),
		"vt_swap_p99_ms":      ms(ref.swapP99),

		"trace.op_wall_p50_ms": tracedP50,
		"trace.overhead_ms":    tracedP50 - untracedP50,

		"fleetd.step_wall_ms":                         tracedP50,
		"fleetd.controller_self_wall_ms":              medianOf(ph.steps, func(s fleetStep) float64 { return ms(s.wall - s.backend) }),
		"fleetd.backend_wall_share":                   ratio(float64(b.total), float64(ph.stepTotal())),
		"fleetd.backend.linkcost_calls_per_placement": ratio(float64(b.linkCalls), placements),
		"fleetd.backend.linkcost_ns_per_call":         ratio(float64(b.linkTime), float64(b.linkCalls)),
		"fleetd.backend.swap_ns_per_call":             ratio(float64(b.swapTime), float64(b.swapCalls)),
		"fleetd.events_per_placement":                 ratio(float64(st.Events), float64(st.Placements)),
		"fleetd.heap_cmps_per_event":                  ratio(float64(ref.heapCmps), float64(st.Events)),
		"fleetd.preemptions":                          float64(st.Preemptions),
		"fleetd.preempt_abort_ratio":                  ratio(float64(st.PreemptAborts), float64(st.Preemptions)),
		"fleetd.swap_outs_per_job":                    ratio(float64(st.SwapOuts), float64(st.Admitted)),
		"fleetd.evac_moves":                           float64(st.EvacMoves),
		"fleetd.rejected":                             float64(st.Rejected),
	}
	for _, l := range cpuLayers {
		m["cpu."+l+"_share"] = shares[l]
	}
	return m
}
