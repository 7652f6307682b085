package harness

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"repro"
	"repro/internal/obsv"
)

// tailTopologies are the two node arrangements the tail experiment
// contrasts at the same processor count: a flat interconnect of 2-processor
// nodes against a hierarchical one with 16 nodes per uplink group. The
// group size is chosen to make the uplink genuinely bind: each node's
// uplink share is UplinkBytesPerKCycle/16 = 58 bytes/kcycle, half the
// 117 bytes/kcycle node-link rate, so cross-group messages pay the uplink
// crossing latency, serialize at half speed, and hold their sender's link
// lane twice as long — queueing that flat runs never see.
var tailTopologies = []struct {
	name string
	spec string
}{
	{"flat", "2"},
	{"hier", "2x16"},
}

// Tail runs each selected application on a flat and a hierarchical
// interconnect and compares their miss-latency tails using the request-span
// layer: the measured run cycles next to the span-derived exact p50/p99/
// p99.9, the hierarchical run split by route (requests confined to one
// uplink group against those that crossed an uplink), and each topology's
// tail stage composition — which stages the slowest 1% of requests spend
// their cycles in. The expected shape is the uplink route's p99 well above
// both the intra-group route and the flat run, attributed to wire and
// link-queue stages rather than handler service.
//
// With observability emission enabled (shastabench -obsv), each topology's
// run writes METRICS_tail_<app>_<topo>.json (metrics snapshot) and
// SPANS_tail_<app>_<topo>.txt (full span report).
func Tail(r *Runner, w io.Writer) error {
	procs := 64
	if r.o.Procs > 0 {
		procs = r.o.Procs
	}
	for _, name := range appsOr(r.o, "Water-Nsq") {
		type topoResult struct {
			cycles int64
			ss     *obsv.SpanSet
		}
		results := make([]topoResult, len(tailTopologies))
		fmt.Fprintf(w, "%s @%dp, span-derived miss-latency tails (cycles)\n", name, procs)
		tab := newTab(w)
		fmt.Fprintln(tab, "topology\trun cycles\tspans\tdropped\tp50\tp90\tp99\tp99.9\tmax")
		for i, topo := range tailTopologies {
			ppn, npg, err := parseTopology(topo.spec)
			if err != nil {
				return err
			}
			cfg := scaleConfig(procs, ppn, npg)
			col := &shasta.CollectorTracer{}
			run, err := r.run(cell{name, r.o.Scale, cfg, false},
				want{name: "tail/" + name + "/" + topo.name, metrics: true, tracer: col})
			if err != nil {
				return err
			}
			ss := obsv.BuildSpans(col.Events)
			results[i] = topoResult{cycles: run.Metrics.Cycles, ss: ss}
			totals := spanTotals(ss, routeAll)
			fmt.Fprintf(tab, "%s (%s)\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\n",
				topo.name, topologyName(cfg), run.Metrics.Cycles, len(ss.Spans),
				ss.DroppedTotal(), obsv.Percentile(totals, 0.50), obsv.Percentile(totals, 0.90),
				obsv.Percentile(totals, 0.99), obsv.Percentile(totals, 0.999), obsv.Percentile(totals, 1.0))
			// Route split: the span layer attributes the hierarchy's cost
			// to the requests that actually crossed an uplink.
			if up := spanTotals(ss, routeUplink); len(up) > 0 {
				in := spanTotals(ss, routeIntra)
				for _, row := range []struct {
					label  string
					totals []int64
				}{{"· intra-group", in}, {"· uplink", up}} {
					fmt.Fprintf(tab, "  %s\t\t%d\t\t%d\t%d\t%d\t%d\t%d\n",
						row.label, len(row.totals),
						obsv.Percentile(row.totals, 0.50), obsv.Percentile(row.totals, 0.90),
						obsv.Percentile(row.totals, 0.99), obsv.Percentile(row.totals, 0.999),
						obsv.Percentile(row.totals, 1.0))
				}
			}
			if r.o.ObsvDir != "" {
				if err := r.writeArtifact(fmt.Sprintf("SPANS_tail_%s_%s.txt", name, topo.name),
					[]byte(obsv.FormatSpans(ss, 3))); err != nil {
					return err
				}
			}
		}
		if err := tab.Flush(); err != nil {
			return err
		}
		flat, hier := results[0], results[1]
		fp99 := obsv.Percentile(spanTotals(flat.ss, routeAll), 0.99)
		hp99 := obsv.Percentile(spanTotals(hier.ss, routeAll), 0.99)
		if fp99 > 0 {
			fmt.Fprintf(w, "p99 inflation hier vs flat: %+.1f%%\n",
				100*(float64(hp99)-float64(fp99))/float64(fp99))
		}
		up99 := obsv.Percentile(spanTotals(hier.ss, routeUplink), 0.99)
		in99 := obsv.Percentile(spanTotals(hier.ss, routeIntra), 0.99)
		if in99 > 0 && up99 > 0 {
			fmt.Fprintf(w, "hier uplink-route p99 vs intra-group: %+.1f%%\n",
				100*(float64(up99)-float64(in99))/float64(in99))
		}
		upWQ := meanTransit(hier.ss, routeUplink)
		inWQ := meanTransit(hier.ss, routeIntra)
		if upWQ > 0 && inWQ > 0 {
			fmt.Fprintf(w, "hier mean wire+queue cycles per span: uplink route %d, intra-group %d (%+.1f%%)\n",
				upWQ, inWQ, 100*(float64(upWQ)-float64(inWQ))/float64(inWQ))
		}
		for i, topo := range tailTopologies {
			fmt.Fprintf(w, "%s tail (spans >= p99) stage composition:\n", topo.name)
			fmt.Fprint(w, tailComposition(results[i].ss))
		}
	}
	return nil
}

// meanTransit is the mean per-span cycle count spent in link-queue and
// wire stages across the spans matching the filter — the part of a
// request's latency owed to the interconnect rather than to handlers or
// inbox waits.
func meanTransit(ss *obsv.SpanSet, match func(*obsv.Span) bool) int64 {
	var cycles int64
	n := 0
	for i := range ss.Spans {
		s := &ss.Spans[i]
		if !match(s) {
			continue
		}
		n++
		for _, st := range s.Stages {
			if strings.HasSuffix(st.Name, "-queue") || strings.HasSuffix(st.Name, "-wire") {
				cycles += st.Cycles
			}
		}
	}
	if n == 0 {
		return 0
	}
	return cycles / int64(n)
}

// Route filters for spanTotals.
func routeAll(s *obsv.Span) bool    { return true }
func routeUplink(s *obsv.Span) bool { return s.Uplink }
func routeIntra(s *obsv.Span) bool  { return !s.Uplink }

// spanTotals collects the end-to-end latencies of the spans matching the
// filter, sorted.
func spanTotals(ss *obsv.SpanSet, match func(*obsv.Span) bool) []int64 {
	var totals []int64
	for i := range ss.Spans {
		if match(&ss.Spans[i]) {
			totals = append(totals, ss.Spans[i].Total())
		}
	}
	sort.Slice(totals, func(i, j int) bool { return totals[i] < totals[j] })
	return totals
}

// tailComposition renders where the slowest 1% of requests spend their
// cycles, by stage, largest share first, with the share of those requests
// that crossed an uplink.
func tailComposition(ss *obsv.SpanSet) string {
	totals := spanTotals(ss, routeAll)
	p99 := obsv.Percentile(totals, 0.99)
	stages := map[string]int64{}
	var grand int64
	n, uplink := 0, 0
	for i := range ss.Spans {
		s := &ss.Spans[i]
		if s.Total() < p99 {
			continue
		}
		n++
		if s.Uplink {
			uplink++
		}
		for _, st := range s.Stages {
			stages[st.Name] += st.Cycles
			grand += st.Cycles
		}
	}
	if n == 0 || grand == 0 {
		return "  (no spans)\n"
	}
	names := make([]string, 0, len(stages))
	for s := range stages {
		names = append(names, s)
	}
	sort.Slice(names, func(i, j int) bool {
		if stages[names[i]] != stages[names[j]] {
			return stages[names[i]] > stages[names[j]]
		}
		return names[i] < names[j]
	})
	out := fmt.Sprintf("  %d spans, %d via uplink\n", n, uplink)
	for _, s := range names {
		out += fmt.Sprintf("  %-14s %5.1f%%\n", s, 100*float64(stages[s])/float64(grand))
	}
	return out
}
