package main

import (
	"fmt"
	"regexp"
	"sort"
)

// Workload names, as --workload takes them.
const (
	wSwapStore = "swap-store"
	wSwapPlain = "swap-plain"
	wMigrate   = "migrate-live"
	wFleet     = "fleet-oversub"
)

var workloadNames = onAll

// Which workloads a metric is measured on. A workload prints every
// metric measured on any workload of its family (the data path, or the
// fleet); one outside the metric's own set prints as 0, the layer being
// idle there by construction.
var (
	onAll      = []string{wSwapStore, wSwapPlain, wMigrate, wFleet}
	onDataPath = []string{wSwapStore, wSwapPlain, wMigrate}
	onSwaps    = []string{wSwapStore, wSwapPlain}
	onMigrate  = []string{wMigrate}
	onFleet    = []string{wFleet}
)

// decl declares one printed metric. Units: ms and s are host wall
// clock; vms and vs are virtual (simulated) milliseconds and seconds,
// exact and deterministic; ratio is a fraction in [0, 1].
type decl struct {
	name string
	unit string
	on   []string
}

// endToEnd is printed by every untraced run (--trace 0).
var endToEnd = []decl{
	{"op_wall_p50_ms", "ms", onAll},
	{"op_wall_tail_ms", "ms", onAll},
	{"sim_speedup_x", "vs/s", onAll},
	{"alloc_mib_per_op", "MiB", onAll},
	{"peak_rss_mib", "MiB", onAll},
	{"setup_s", "s", onAll},
}

// perLayer is printed by the traced run (--trace 1). Host-clock values
// are per-op medians of timed public calls; counts and virtual values
// are exact.
var perLayer = []decl{
	// Virtual-clock results of the operation itself.
	{"vt_capture_ms", "vms", onDataPath},
	{"vt_restore_ms", "vms", onDataPath},
	{"vt_downtime_ms", "vms", onDataPath},
	{"shipped_mib_per_op", "MiB", onDataPath},
	{"vt_makespan_s", "vs", onFleet},
	{"vt_util_pct", "%", onFleet},
	{"vt_queue_wait_p99_s", "vs", onFleet},
	{"vt_swap_p99_ms", "vms", onFleet},

	// The traced run against the untraced phase of the same process.
	{"trace.op_wall_p50_ms", "ms", onAll},
	{"trace.overhead_ms", "ms", onAll},

	// core
	{"core.pause_wall_ms", "ms", onSwaps},
	{"core.capture_wall_ms", "ms", onSwaps},
	{"core.restore_wall_ms", "ms", onSwaps},
	{"core.resume_wall_ms", "ms", onSwaps},
	{"core.precopy_round_wall_ms", "ms", onMigrate},
	{"core.finish_wall_ms", "ms", onMigrate},
	{"core.vt_pause_handshake_ms", "vms", onDataPath},
	{"core.vt_restore_local_ms", "vms", onDataPath},
	{"core.vt_resume_ms", "vms", onDataPath},
	{"core.precopy_rounds", "count", onMigrate},
	{"core.precopy_skipped_rounds", "count", onMigrate},
	{"core.final_dirty_mib", "MiB", onMigrate},
	{"core.warmup_op_wall_ms", "ms", onDataPath},
	{"cpu.core_share", "ratio", onAll},

	// blob
	{"blob.literal_mib_after_restore", "MiB", onDataPath},
	{"cpu.blob_share", "ratio", onAll},

	// snapstore
	{"snapstore.chunks_put_per_op", "count", onDataPath},
	{"snapstore.chunk_hit_ratio", "ratio", onDataPath},
	{"snapstore.shipped_mib_per_op", "MiB", onDataPath},
	{"snapstore.chunks_resident", "count", onDataPath},
	{"snapstore.release_gc_wall_ms", "ms", onDataPath},
	{"snapstore.vt_precopy_stage_ms", "vms", onDataPath},
	{"cpu.snapstore_share", "ratio", onAll},

	// snapifyio
	{"snapifyio.stream_mib_per_op", "MiB", onDataPath},
	{"snapifyio.streams_opened_per_op", "count", onDataPath},
	{"snapifyio.remote_errors_per_op", "count", onDataPath},
	{"snapifyio.aborts_per_op", "count", onDataPath},
	{"cpu.snapifyio_share", "ratio", onAll},

	// blcr
	{"blcr.vt_restore_device_ms", "vms", onDataPath},
	{"cpu.blcr_share", "ratio", onAll},

	// coi
	{"coi.vt_host_drain_ms", "vms", onDataPath},
	{"coi.vt_device_drain_ms", "vms", onDataPath},
	{"coi.vt_reconnect_ms", "vms", onDataPath},
	{"coi.channel_drains_per_op", "count", onDataPath},
	{"coi.channel_requests_per_op", "count", onDataPath},
	{"coi.pause_locks_per_op", "count", onDataPath},
	{"coi.start_daemons_wall_ms", "ms", onDataPath},
	{"cpu.coi_share", "ratio", onAll},

	// scif / simnet
	{"scif.link_busy_ms_per_op", "vms", onDataPath},
	{"scif.link_transfers_per_op", "count", onDataPath},
	{"scif.traffic_mib_per_op", "MiB", onDataPath},
	{"scif.link_peak_flows", "count", onDataPath},
	{"cpu.scif_share", "ratio", onAll},
	{"cpu.simnet_share", "ratio", onAll},

	// workloads / platform
	{"workloads.call_wall_ms", "ms", onDataPath},
	{"workloads.launch_wall_ms", "ms", onDataPath},
	{"platform.new_wall_ms", "ms", onDataPath},

	// fleetd
	{"fleetd.step_wall_ms", "ms", onFleet},
	{"fleetd.controller_self_wall_ms", "ms", onFleet},
	{"fleetd.backend_wall_share", "ratio", onFleet},
	{"fleetd.backend.linkcost_calls_per_placement", "count", onFleet},
	{"fleetd.backend.linkcost_ns_per_call", "ns", onFleet},
	{"fleetd.backend.swap_ns_per_call", "ns", onFleet},
	{"fleetd.events_per_placement", "count", onFleet},
	{"fleetd.heap_cmps_per_event", "count", onFleet},
	{"fleetd.preemptions", "count", onFleet},
	{"fleetd.preempt_abort_ratio", "ratio", onFleet},
	{"fleetd.swap_outs_per_job", "count", onFleet},
	{"fleetd.evac_moves", "count", onFleet},
	{"fleetd.rejected", "count", onFleet},
	{"cpu.fleetd_share", "ratio", onAll},

	// runtime, and everything no layer above claims
	{"cpu.gc_share", "ratio", onAll},
	{"cpu.other_share", "ratio", onAll},
}

// cpuLayers are the profile buckets printed as cpu.<layer>_share, in
// the order the profile attribution fills them; "gc" and "other" are
// the runtime's GC workers and everything outside the named layers.
var cpuLayers = []string{"core", "blob", "snapstore", "snapifyio", "blcr", "coi", "scif", "simnet", "fleetd", "gc", "other"}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]*$`)

// metric is one printed value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object printed as the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func measuredOn(d decl, workloads ...string) bool {
	for _, w := range d.on {
		for _, x := range workloads {
			if w == x {
				return true
			}
		}
	}
	return false
}

// printed returns the declarations a workload prints: those measured on
// some workload of its family.
func printed(decls []decl, workload string) []decl {
	family := onDataPath
	if workload == wFleet {
		family = onFleet
	}
	var out []decl
	for _, d := range decls {
		if measuredOn(d, family...) {
			out = append(out, d)
		}
	}
	return out
}

// collect builds the printed metric set from the values a workload
// measured: every metric of its family appears with its unit, a metric
// the workload is declared to measure must have been measured, and one
// it is not declared to measure reads 0.
func collect(decls []decl, workload string, values map[string]float64) (map[string]metric, error) {
	decls = printed(decls, workload)
	out := make(map[string]metric, len(decls))
	for _, d := range decls {
		v, ok := values[d.name]
		if measuredOn(d, workload) && !ok {
			return nil, fmt.Errorf("%s: metric %s was not measured", workload, d.name)
		}
		out[d.name] = metric{Value: v, Unit: d.unit}
	}
	var extra []string
	for name := range values {
		if _, ok := out[name]; !ok {
			extra = append(extra, name)
		}
	}
	if len(extra) > 0 {
		sort.Strings(extra)
		return nil, fmt.Errorf("%s: undeclared metrics %v", workload, extra)
	}
	return out, nil
}
