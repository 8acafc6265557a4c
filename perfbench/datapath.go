package main

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"strings"
	"time"

	"snapify/internal/coi"
	"snapify/internal/core"
	"snapify/internal/obs"
	"snapify/internal/obs/analyze"
	"snapify/internal/phi"
	"snapify/internal/platform"
	"snapify/internal/simclock"
	"snapify/internal/simnet"
	"snapify/internal/workloads"
)

// The data-path workloads run one offload process and repeat one
// operation on it: a swap-out plus swap-in through the content-addressed
// store (swap-store) or through plain host files (swap-plain), or a live
// pre-copy migration between card 1 and card 2 (migrate-live). One
// dirtying offload call runs between operations, and the snapshot the
// latest operation superseded is dropped, so every operation sees the
// same store state no matter how long the run lasts.

// dpConfig sizes one data-path run.
type dpConfig struct {
	workload   string
	imageBytes int64
	seed       uint64
	// seconds is the length of each timed phase; a phase also runs at
	// least minOps operations.
	seconds float64
	minOps  int
	// setups is how many times the platform is built and warmed; setup_s
	// is the median, and the last one is measured.
	setups int
	traced bool
}

// warmupOps run during set-up: the first operation meets a cold store
// and ships the whole image, the second is the first steady one.
const warmupOps = 2

// precopyRounds bounds each live migration's pre-copy iterations, as
// the repository's migration sweep does.
const precopyRounds = 4

// spec is the offload application every data-path workload runs. It
// never finishes on its own: the run decides how many calls it makes.
func (c dpConfig) spec() workloads.Spec {
	return workloads.Spec{
		Code: "PB", Name: "perfbench " + c.workload,
		HostMem:        16 * simclock.MiB,
		DeviceMem:      c.imageBytes,
		LocalStore:     4 * simclock.MiB,
		Calls:          math.MaxInt32,
		StepsPerCall:   2,
		ComputePerCall: 2 * time.Millisecond,
		InPerCall:      64 * simclock.KiB,
	}
}

// rotatingPages is the period of the offload kernel's working set: each
// call dirties one of 1024 pages of a 4 MiB window, on the card and on the
// host. Until every page has been written once, each call adds a region
// fragment and every capture and restore gets slower.
const rotatingPages = 1024

// startCalls is how many offload calls run before the first operation:
// one full turn of the working set, so operations are timed on the
// image's steady shape, plus a seeded offset that sets where the working
// set stands and the checksum the run must reproduce.
func (c dpConfig) startCalls() int { return rotatingPages + int(c.seed%97) }

func (c dpConfig) usesStore() bool { return c.workload != wSwapPlain }

// opRecord is one operation's measurements.
type opRecord struct {
	wall time.Duration
	// Swaps time each primitive; migrations time each pre-copy round
	// and the switch-over.
	pause, capture, restore, resume time.Duration
	rounds                          []time.Duration
	finish                          time.Duration
	report                          core.Report
	// literal is how many bytes the restored device process holds
	// materialized (its regions' overlay bytes), traced phases only.
	literal int64
	// Between operations: the dirtying offload call, and the release of
	// the superseded snapshot plus a store GC.
	call, releaseGC time.Duration
	chunks          int
	// The operation's window on the process's virtual timeline.
	vStart, vEnd simclock.Duration
	// Traced phases only: counter and link deltas across the operation.
	counters map[string]float64
	link     linkSample
}

// session is one platform with the measured process on it.
type session struct {
	cfg  dpConfig
	plat *platform.Platform
	in   *workloads.Instance
	dev  simnet.NodeID
	n    int
	prev string
}

// setupTimes are one set-up's components.
type setupTimes struct {
	total, platformNew, daemons, launch, warmup time.Duration
}

func newPlatform(imageBytes int64) (*platform.Platform, error) {
	return platform.New(platform.Config{Server: phi.ServerConfig{
		Devices: 2,
		Device:  phi.DeviceConfig{MemBytes: imageBytes + 2*simclock.GiB},
	}})
}

// setup builds the platform, launches the process, and runs the warm-up
// operations.
func setup(cfg dpConfig) (*session, setupTimes, error) {
	var st setupTimes
	t0 := time.Now()
	plat, err := newPlatform(cfg.imageBytes)
	if err != nil {
		return nil, st, err
	}
	st.platformNew = time.Since(t0)
	s := &session{cfg: cfg, plat: plat, dev: 1}
	t := time.Now()
	if err := coi.StartDaemons(plat); err != nil {
		plat.IO.Stop()
		return nil, st, err
	}
	st.daemons = time.Since(t)
	t = time.Now()
	if s.in, err = workloads.Launch(plat, cfg.spec(), s.dev); err != nil {
		s.close()
		return nil, st, err
	}
	st.launch = time.Since(t)
	if _, err := s.in.RunCalls(cfg.startCalls()); err != nil {
		s.close()
		return nil, st, err
	}
	t = time.Now()
	for i := 0; i < warmupOps; i++ {
		rec, err := s.op(false)
		if err == nil {
			err = s.settle(&rec)
		}
		if err != nil {
			s.close()
			return nil, st, fmt.Errorf("warm-up operation %d: %w", i+1, err)
		}
	}
	st.warmup = time.Since(t)
	st.total = time.Since(t0)
	return s, st, nil
}

func (s *session) close() {
	if s.in != nil {
		s.in.Close()
	}
	coi.StopDaemons(s.plat)
	s.plat.IO.Stop()
}

// op runs one measured operation.
func (s *session) op(traced bool) (opRecord, error) {
	s.n++
	dir := fmt.Sprintf("/perfbench/op%d", s.n)
	vStart := s.in.TL.Now()
	var rec opRecord
	var err error
	if s.cfg.workload == wMigrate {
		rec, err = s.migrate(dir)
	} else {
		rec, err = s.swap(dir)
	}
	if err != nil {
		return rec, err
	}
	rec.vStart, rec.vEnd = vStart, s.in.TL.Now()
	if traced {
		rec.literal = literalBytes(s.in.CP)
	}
	return rec, nil
}

// swap is core.Swapout followed by core.Swapin, spelled out in the five
// primitives so each is timed on its own.
func (s *session) swap(dir string) (opRecord, error) {
	var rec opRecord
	store := s.cfg.workload == wSwapStore
	start := time.Now()
	snap := core.NewSnapshot(dir, s.in.CP)
	t := time.Now()
	if err := snap.Pause(); err != nil {
		return rec, err
	}
	rec.pause = time.Since(t)
	copts := core.CaptureOptions{Terminate: true}
	copts.Store.Enabled = store
	t = time.Now()
	if err := snap.Capture(copts); err != nil {
		return rec, err
	}
	if err := snap.Wait(); err != nil {
		return rec, err
	}
	rec.capture = time.Since(t)
	var ropts core.RestoreOptions
	ropts.Store.Enabled = store
	t = time.Now()
	cp, err := snap.Restore(s.dev, ropts)
	if err != nil {
		return rec, err
	}
	rec.restore = time.Since(t)
	t = time.Now()
	if err := snap.Resume(); err != nil {
		return rec, err
	}
	rec.resume = time.Since(t)
	rec.wall = time.Since(start)
	s.in.CP = cp
	rec.report = snap.Report
	return rec, nil
}

// migrate live-migrates the process to the other card. One offload call
// runs between pre-copy rounds, so the image changes while it moves;
// those calls are not part of the operation's wall time.
func (s *session) migrate(dir string) (opRecord, error) {
	var rec opRecord
	dst := simnet.NodeID(3) - s.dev
	start := time.Now()
	var calls time.Duration
	m, err := core.NewMigration(s.in.CP, core.MigrateOptions{
		DeviceTo: dst,
		Path:     dir,
		Precopy:  core.PrecopyOptions{MaxRounds: precopyRounds},
	})
	if err != nil {
		return rec, err
	}
	for {
		t := time.Now()
		_, done, err := m.Round()
		rec.rounds = append(rec.rounds, time.Since(t))
		if err != nil {
			m.Abort()
			return rec, err
		}
		if done {
			break
		}
		t = time.Now()
		if _, err := s.in.RunCalls(1); err != nil {
			m.Abort()
			return rec, err
		}
		calls += time.Since(t)
	}
	t := time.Now()
	cp, err := m.Finish()
	if err != nil {
		return rec, err
	}
	rec.finish = time.Since(t)
	rec.wall = time.Since(start) - calls
	s.in.CP = cp
	s.dev = dst
	rec.report = m.Snapshot().Report
	return rec, nil
}

// settle runs the dirtying call between operations and drops the
// snapshot the latest operation superseded. The latest snapshot stays:
// it is what the next capture deduplicates against.
func (s *session) settle(rec *opRecord) error {
	t := time.Now()
	if _, err := s.in.RunCalls(1); err != nil {
		return fmt.Errorf("offload call: %w", err)
	}
	rec.call = time.Since(t)
	cur := fmt.Sprintf("/perfbench/op%d/", s.n)
	if s.prev != "" {
		if s.cfg.usesStore() {
			t = time.Now()
			if err := s.release(s.prev); err != nil {
				return err
			}
			rec.releaseGC = time.Since(t)
		}
		s.plat.Host().FS.RemoveAll(s.prev)
	}
	s.prev = cur
	rec.chunks = s.plat.Store.Stats().Chunks
	return nil
}

// release drops every store snapshot under dir and collects garbage.
func (s *session) release(dir string) error {
	st := s.plat.Store
	for _, p := range st.List() {
		if strings.HasPrefix(p, dir) {
			if _, err := st.Release(p); err != nil {
				return fmt.Errorf("releasing %s: %w", p, err)
			}
		}
	}
	if _, _, err := st.GC(s.in.TL.Now()); err != nil {
		return fmt.Errorf("store gc: %w", err)
	}
	return nil
}

// literalBytes sums the overlay (materialized) bytes over the regions of
// cp's device-side process.
func literalBytes(cp *coi.Process) int64 {
	op, err := coi.DaemonAt(cp.Platform(), cp.DeviceNode()).Lookup(cp.ID())
	if err != nil {
		return 0
	}
	var n int64
	for _, r := range op.Proc().Regions() {
		n += r.DirtyBytes()
	}
	return n
}

// phase is one timed loop's measurements.
type phase struct {
	recs      []opRecord
	failed    int
	wall      time.Duration
	virtual   simclock.Duration
	allocated uint64
}

// loop repeats the operation until the phase has run cfg.seconds and at
// least cfg.minOps operations. An operation that fails ends the phase:
// the process is in an unknown state after it.
func (s *session) loop(traced bool) (phase, error) {
	var ph phase
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	v0 := s.in.TL.Now()
	start := time.Now()
	deadline := time.Duration(s.cfg.seconds * float64(time.Second))
	for time.Since(start) < deadline || len(ph.recs) < s.cfg.minOps {
		var c0 map[string]float64
		var l0 linkSample
		if traced {
			c0 = counters(s.plat)
			l0 = sampleLinks(s.plat)
		}
		rec, err := s.op(traced)
		if err != nil {
			ph.failed++
			return ph, fmt.Errorf("operation %d: %w", s.n, err)
		}
		if traced {
			rec.counters = subCounters(counters(s.plat), c0)
			rec.link = sampleLinks(s.plat).since(l0)
		}
		if err := s.settle(&rec); err != nil {
			ph.failed++
			return ph, fmt.Errorf("after operation %d: %w", s.n, err)
		}
		ph.recs = append(ph.recs, rec)
	}
	ph.wall = time.Since(start)
	ph.virtual = s.in.TL.Now() - v0
	runtime.ReadMemStats(&ms1)
	ph.allocated = ms1.TotalAlloc - ms0.TotalAlloc
	return ph, nil
}

// dpOutcome is what the correctness gate inspects after the run.
type dpOutcome struct {
	calls       int
	checksum    uint64
	refChecksum uint64
	problems    []string
	chunksLeft  int
	chunksMin   int
	chunksMax   int
}

// finish ends the run: it checks the process against an undisturbed
// reference, fscks the store, and releases everything.
func (s *session) finish(recs []opRecord) (*dpOutcome, error) {
	out := &dpOutcome{calls: s.in.Progress(), checksum: s.in.Checksum()}
	for i, r := range recs {
		if i == 0 || r.chunks < out.chunksMin {
			out.chunksMin = r.chunks
		}
		if r.chunks > out.chunksMax {
			out.chunksMax = r.chunks
		}
	}
	ref, err := referenceChecksum(s.cfg, out.calls)
	if err != nil {
		return nil, fmt.Errorf("reference run: %w", err)
	}
	out.refChecksum = ref
	out.problems, _ = s.plat.Store.Verify()
	if err := s.release("/"); err != nil {
		return nil, err
	}
	out.chunksLeft = s.plat.Store.Stats().Chunks
	return out, nil
}

// referenceChecksum runs the same application for the same number of
// calls on a fresh platform, never snapshotted.
func referenceChecksum(cfg dpConfig, calls int) (uint64, error) {
	plat, err := newPlatform(cfg.imageBytes)
	if err != nil {
		return 0, err
	}
	defer plat.IO.Stop()
	if err := coi.StartDaemons(plat); err != nil {
		return 0, err
	}
	defer coi.StopDaemons(plat)
	in, err := workloads.Launch(plat, cfg.spec(), 1)
	if err != nil {
		return 0, err
	}
	defer in.Close()
	if _, err := in.RunCalls(calls); err != nil {
		return 0, err
	}
	return in.Checksum(), nil
}

// check is the data-path correctness gate.
func (o *dpOutcome) check() []string {
	var bad []string
	if o.checksum != o.refChecksum {
		bad = append(bad, fmt.Sprintf("checksum %#x after %d calls, undisturbed reference %#x", o.checksum, o.calls, o.refChecksum))
	}
	for _, p := range o.problems {
		bad = append(bad, "store verify: "+p)
	}
	if o.chunksLeft != 0 {
		bad = append(bad, fmt.Sprintf("%d chunks remain after the final release and GC", o.chunksLeft))
	}
	// Each operation drops the snapshot it superseded, so residency
	// must not grow with the number of operations.
	if o.chunksMax > o.chunksMin+2 {
		bad = append(bad, fmt.Sprintf("resident chunks grew from %d to %d over the run", o.chunksMin, o.chunksMax))
	}
	return bad
}

// runDataPath runs one data-path workload: set-up cfg.setups times, an
// untraced phase, with cfg.traced a traced phase, and the correctness
// gate.
func runDataPath(cfg dpConfig, outDir string) (*runResult, error) {
	res := &runResult{}
	var s *session
	var setups []setupTimes
	for i := 0; i < cfg.setups; i++ {
		// One platform at a time, its predecessor's memory returned to
		// the OS, so repeated set-ups do not raise the peak RSS.
		if s != nil {
			s.close()
			debug.FreeOSMemory()
		}
		next, st, err := setup(cfg)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		s = next
		setups = append(setups, st)
	}
	defer s.close()
	res.note("peak RSS after %d set-ups: %.1f MiB", len(setups), peakRSSMiB())

	phases := []phase{}
	run := func(traced bool) phase {
		ph, err := s.loop(traced)
		res.attempted += len(ph.recs) + ph.failed
		res.failed += ph.failed
		if err != nil {
			res.problems = append(res.problems, err.Error())
		}
		phases = append(phases, ph)
		return ph
	}
	untraced := run(false)
	walls := msAll(wallsOf(untraced.recs))
	var totals []time.Duration
	for _, st := range setups {
		totals = append(totals, st.total)
	}
	hostMetrics(res, walls, untraced.wall, untraced.virtual, untraced.allocated, totals)
	res.note("%s: %d ops in %.2f s; op wall p50 %.4f ms in the first half, %.4f ms in the second",
		cfg.workload, len(walls), untraced.wall.Seconds(), median(walls[:len(walls)/2]), median(walls[len(walls)/2:]))

	if cfg.traced && res.failed == 0 {
		var prof bytes.Buffer
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return nil, err
		}
		traced := run(true)
		pprof.StopCPUProfile()
		shares, err := layerShares(prof.Bytes())
		if err != nil {
			return nil, err
		}
		res.layer = dataLayers(cfg, setups, median(walls), traced, shares)
		writeOut(res, outDir, cfg.workload+".cpu.pprof", prof.Bytes())
		if len(traced.recs) > 0 {
			criticalPath(res, s.plat.Obs.TracerOf(), traced.recs[len(traced.recs)-1])
		}
		writeOut(res, outDir, cfg.workload+".trace.json", s.plat.Obs.TracerOf().ChromeTrace())
	}

	if res.failed > 0 {
		return res, nil
	}
	var all []opRecord
	for _, ph := range phases {
		all = append(all, ph.recs...)
	}
	outcome, err := s.finish(all)
	if err != nil {
		return nil, err
	}
	res.problems = append(res.problems, outcome.check()...)
	res.note("correctness: checksum %#x after %d calls (reference %#x); resident chunks %d..%d; %d store problems; %d chunks after the final GC",
		outcome.checksum, outcome.calls, outcome.refChecksum, outcome.chunksMin, outcome.chunksMax, len(outcome.problems), outcome.chunksLeft)
	return res, nil
}

func wallsOf(recs []opRecord) []time.Duration {
	out := make([]time.Duration, len(recs))
	for i, r := range recs {
		out[i] = r.wall
	}
	return out
}

// criticalPath prints the virtual-clock blame of one operation's spans.
func criticalPath(res *runResult, tr *obs.Tracer, rec opRecord) {
	var spans []obs.Span
	for _, sp := range tr.Spans() {
		if sp.End() > rec.vStart && sp.Start < rec.vEnd {
			spans = append(spans, sp)
		}
	}
	rep, err := analyze.CriticalPath(spans)
	if err != nil {
		res.note("critical path: %v", err)
		return
	}
	res.note("critical path of the last operation: %d spans, %.3f ms virtual", rep.Spans, ms(time.Duration(rep.EndToEndNs)))
	for i, b := range rep.Blame {
		if i == 8 {
			break
		}
		res.note("  %-28s %10.3f vms %6.2f%%", b.Name, ms(time.Duration(b.TotalNs)), b.Percent)
	}
}

const mib = float64(simclock.MiB)

// dataLayers computes the per-layer metrics of a traced data-path phase.
// Host-clock values are per-op medians; counter values are per-op
// medians of the deltas around each operation.
func dataLayers(cfg dpConfig, setups []setupTimes, untracedP50 float64, ph phase, shares map[string]float64) map[string]float64 {
	recs := ph.recs
	med := func(f func(opRecord) float64) float64 { return medianOf(recs, f) }
	ctr := func(name string) float64 { return med(func(r opRecord) float64 { return r.counters[name] }) }
	sum := func(name string) float64 {
		var t float64
		for _, r := range recs {
			t += r.counters[name]
		}
		return t
	}
	setupMed := func(f func(setupTimes) time.Duration) float64 {
		return medianOf(setups, func(st setupTimes) float64 { return ms(f(st)) })
	}
	vms := func(f func(core.Report) simclock.Duration) float64 {
		return med(func(r opRecord) float64 { return ms(f(r.report)) })
	}
	tracedP50 := med(func(r opRecord) float64 { return ms(r.wall) })
	var peakFlows int64
	chunks := 0
	for _, r := range recs {
		if r.link.peakFlows > peakFlows {
			peakFlows = r.link.peakFlows
		}
		if r.chunks > chunks {
			chunks = r.chunks
		}
	}
	puts, hits := sum("snapstore_chunks_put_total"), sum("snapstore_chunk_hits_total")
	m := map[string]float64{
		"vt_capture_ms": vms(func(r core.Report) simclock.Duration { return r.Capture }),
		"vt_restore_ms": vms(func(r core.Report) simclock.Duration { return r.RestoreTotal() }),
		"vt_downtime_ms": vms(func(r core.Report) simclock.Duration {
			if r.Downtime > 0 {
				return r.Downtime
			}
			return r.PauseTotal() + r.Capture + r.RestoreTotal() + r.Resume
		}),
		"shipped_mib_per_op": med(func(r opRecord) float64 {
			n := r.report.ShippedBytes
			for _, p := range r.report.Precopy {
				n += p.ShippedBytes
			}
			return float64(n) / mib
		}),

		"trace.op_wall_p50_ms": tracedP50,
		"trace.overhead_ms":    tracedP50 - untracedP50,

		"core.vt_pause_handshake_ms": vms(func(r core.Report) simclock.Duration { return r.PauseHandshake }),
		"core.vt_restore_local_ms":   vms(func(r core.Report) simclock.Duration { return r.RestoreLocal }),
		"core.vt_resume_ms":          vms(func(r core.Report) simclock.Duration { return r.Resume }),
		"core.warmup_op_wall_ms":     setupMed(func(st setupTimes) time.Duration { return st.warmup / warmupOps }),

		"blob.literal_mib_after_restore": med(func(r opRecord) float64 { return float64(r.literal) / mib }),

		"snapstore.chunks_put_per_op":   ctr("snapstore_chunks_put_total"),
		"snapstore.chunk_hit_ratio":     ratio(hits, hits+puts),
		"snapstore.shipped_mib_per_op":  ctr("snapstore_bytes_shipped_total") / mib,
		"snapstore.chunks_resident":     float64(chunks),
		"snapstore.release_gc_wall_ms":  med(func(r opRecord) float64 { return ms(r.releaseGC) }),
		"snapstore.vt_precopy_stage_ms": vms(func(r core.Report) simclock.Duration { return stageTime(r) }),

		"snapifyio.stream_mib_per_op":     ctr("snapifyio_stream_bytes_total") / mib,
		"snapifyio.streams_opened_per_op": ctr("snapifyio_streams_opened_total"),
		"snapifyio.remote_errors_per_op":  ratio(sum("snapifyio_remote_errors_total"), float64(len(recs))),
		"snapifyio.aborts_per_op":         ratio(sum("snapifyio_aborts_total"), float64(len(recs))),

		"blcr.vt_restore_device_ms": vms(func(r core.Report) simclock.Duration { return r.RestoreDevice }),

		"coi.vt_host_drain_ms":        vms(func(r core.Report) simclock.Duration { return r.HostDrain }),
		"coi.vt_device_drain_ms":      vms(func(r core.Report) simclock.Duration { return r.DeviceDrain }),
		"coi.vt_reconnect_ms":         vms(func(r core.Report) simclock.Duration { return r.RestoreReconnect }),
		"coi.channel_drains_per_op":   ctr("coi_channel_drains_total"),
		"coi.channel_requests_per_op": ctr("coi_channel_requests_total"),
		"coi.pause_locks_per_op":      ctr("coi_pause_locks_total"),
		"coi.start_daemons_wall_ms":   setupMed(func(st setupTimes) time.Duration { return st.daemons }),

		"scif.link_busy_ms_per_op":   med(func(r opRecord) float64 { return ms(r.link.busy) }),
		"scif.link_transfers_per_op": med(func(r opRecord) float64 { return float64(r.link.transfers) }),
		"scif.traffic_mib_per_op":    med(func(r opRecord) float64 { return float64(r.link.traffic) / mib }),
		"scif.link_peak_flows":       float64(peakFlows),

		"workloads.call_wall_ms":   med(func(r opRecord) float64 { return ms(r.call) }),
		"workloads.launch_wall_ms": setupMed(func(st setupTimes) time.Duration { return st.launch }),
		"platform.new_wall_ms":     setupMed(func(st setupTimes) time.Duration { return st.platformNew }),
	}
	if cfg.workload == wMigrate {
		var rounds []float64
		for _, r := range recs {
			rounds = append(rounds, msAll(r.rounds)...)
		}
		m["core.precopy_round_wall_ms"] = median(rounds)
		m["core.finish_wall_ms"] = med(func(r opRecord) float64 { return ms(r.finish) })
		m["core.precopy_rounds"] = med(func(r opRecord) float64 { return float64(len(r.report.Precopy)) })
		m["core.precopy_skipped_rounds"] = med(func(r opRecord) float64 {
			n := 0
			for _, p := range r.report.Precopy {
				if p.Skipped {
					n++
				}
			}
			return float64(n)
		})
		m["core.final_dirty_mib"] = med(func(r opRecord) float64 {
			if len(r.report.Precopy) == 0 {
				return 0
			}
			return float64(r.report.Precopy[len(r.report.Precopy)-1].DirtyBytes) / mib
		})
	} else {
		m["core.pause_wall_ms"] = med(func(r opRecord) float64 { return ms(r.pause) })
		m["core.capture_wall_ms"] = med(func(r opRecord) float64 { return ms(r.capture) })
		m["core.restore_wall_ms"] = med(func(r opRecord) float64 { return ms(r.restore) })
		m["core.resume_wall_ms"] = med(func(r opRecord) float64 { return ms(r.resume) })
	}
	for _, l := range cpuLayers {
		m["cpu."+l+"_share"] = shares[l]
	}
	return m
}

// stageTime is how long the destination card spent staging pre-copy
// chunks over one migration.
func stageTime(r core.Report) simclock.Duration {
	var d simclock.Duration
	for _, p := range r.Precopy {
		d += p.StageDuration
	}
	return d
}
