package main

import (
	"strconv"
	"strings"

	"snapify/internal/platform"
	"snapify/internal/simclock"
	"snapify/internal/simnet"
)

// counters reads every counter and gauge of the platform's metrics
// registry through its text exposition, summed over labels, by family
// name.
func counters(plat *platform.Platform) map[string]float64 {
	out := make(map[string]float64)
	for _, line := range strings.Split(plat.Obs.MetricsOf().Expose(), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		name := line[:sp]
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		out[name] += v
	}
	return out
}

// subCounters returns after minus before, per name.
func subCounters(after, before map[string]float64) map[string]float64 {
	out := make(map[string]float64, len(after))
	for k, v := range after {
		out[k] = v - before[k]
	}
	return out
}

// linkSample is the PCIe fabric's cumulative counters at one instant, or
// (from since) its activity over an interval.
type linkSample struct {
	busy      simclock.Duration
	transfers int64
	traffic   int64
	peakFlows int64
}

// sampleLinks reads every card link's utilization counters and the
// traffic between every pair of nodes.
func sampleLinks(plat *platform.Platform) linkSample {
	f := plat.Server.Fabric
	var s linkSample
	for n := 1; n < f.Nodes(); n++ {
		st := f.LinkStats(simnet.NodeID(n))
		s.busy += st.Busy
		s.transfers += st.Transfers
		if st.PeakFlows > s.peakFlows {
			s.peakFlows = st.PeakFlows
		}
	}
	for from := 0; from < f.Nodes(); from++ {
		for to := 0; to < f.Nodes(); to++ {
			s.traffic += f.Traffic(simnet.NodeID(from), simnet.NodeID(to))
		}
	}
	return s
}

// since returns the activity between an earlier sample and s. The peak
// flow count is a high-water mark, so it is kept, not differenced.
func (s linkSample) since(earlier linkSample) linkSample {
	return linkSample{
		busy:      s.busy - earlier.busy,
		transfers: s.transfers - earlier.transfers,
		traffic:   s.traffic - earlier.traffic,
		peakFlows: s.peakFlows,
	}
}
