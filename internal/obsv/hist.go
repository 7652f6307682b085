package obsv

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/protocol"
	"repro/internal/stats"
)

// trimHistogram converts a fixed bucket array into the wire Histogram,
// dropping trailing zero buckets.
func trimHistogram(buckets [stats.NumLatencyBuckets]int64, count int64) Histogram {
	last := -1
	for b, n := range buckets {
		if n != 0 {
			last = b
		}
	}
	return Histogram{Buckets: append([]int64(nil), buckets[:last+1]...), Count: count}
}

// bucketLabel renders bucket b's cycle range for reports.
func bucketLabel(b int) string {
	lo, hi := stats.BucketRange(b)
	if hi < 0 {
		return fmt.Sprintf(">=%d", lo)
	}
	if lo == hi-1 {
		return fmt.Sprintf("%d", lo)
	}
	return fmt.Sprintf("%d-%d", lo, hi-1)
}

// estPercentile estimates the q-th percentile (0 < q <= 1) of a bucketed
// histogram by linear interpolation within the bucket the rank lands in.
// The power-of-two buckets make this coarse — at worst off by half the
// bucket width — but it turns existing histograms into tail summaries
// without re-running; the span layer (BuildSpans) computes exact
// percentiles when a trace is available. The top (open) bucket has no upper
// edge, so ranks landing there estimate as its lower edge.
//
// ok is false for an empty histogram (Count <= 0 or no buckets), and also
// for a malformed document whose Count exceeds the bucket sum — the rank
// then lands past every bucket and there is nothing to interpolate within.
// Zero buckets are skipped before the interpolation divide, so a
// single-bucket histogram (the smallest valid input) always interpolates
// with n >= 1: no divide-by-zero or NaN path exists for any input.
func estPercentile(h Histogram, q float64) (int64, bool) {
	if h.Count <= 0 || len(h.Buckets) == 0 {
		return 0, false
	}
	rank := int64(float64(h.Count)*q + 0.999999) // nearest-rank, 1-based
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for bi, n := range h.Buckets {
		if n <= 0 {
			continue
		}
		if cum+n >= rank {
			lo, hi := stats.BucketRange(bi)
			if hi < 0 {
				return lo, true
			}
			// Interpolate the rank's position within the bucket; n >= 1 here.
			frac := (float64(rank-cum) - 0.5) / float64(n)
			return lo + int64(frac*float64(hi-lo)), true
		}
		cum += n
	}
	return 0, false // Count > bucket sum: malformed, decline to estimate
}

// FormatHistograms renders a histogram map deterministically: keys sorted,
// one line per non-empty bucket with its cycle range, count and a
// proportional bar, and a trailing line with estimated (bucket-interpolated)
// p50/p99. Identical runs format byte-identically.
func FormatHistograms(hists map[string]Histogram) string {
	var b strings.Builder
	for _, key := range stats.SortedKeys(hists) {
		h := hists[key]
		fmt.Fprintf(&b, "%s: %d samples\n", key, h.Count)
		var peak int64
		for _, n := range h.Buckets {
			if n > peak {
				peak = n
			}
		}
		for bi, n := range h.Buckets {
			if n == 0 {
				continue
			}
			bar := ""
			if peak > 0 {
				bar = strings.Repeat("#", int(1+n*39/peak))
			}
			fmt.Fprintf(&b, "  %16s  %8d  %s\n", bucketLabel(bi), n, bar)
		}
		p50, ok50 := estPercentile(h, 0.50)
		p99, ok99 := estPercentile(h, 0.99)
		if ok50 && ok99 {
			fmt.Fprintf(&b, "  est p50 ~%d cycles, p99 ~%d cycles (bucket interpolation)\n", p50, p99)
		}
	}
	return b.String()
}

// TraceHistograms derives miss-latency histograms from a trace alone, by
// pairing each miss event with the first later install event of the same
// processor and block and bucketing the elapsed virtual time. The keys are
// the install grant kinds ("shared", "exclusive", "upgrade"); home-node
// distance is not recoverable from the trace, so unlike the exact
// Snapshot.Histograms there is no local/remote split. Misses that never
// install (e.g. merged or superseded requests, or a truncated trace) are
// reported in the returned unmatched count.
func TraceHistograms(events []protocol.TraceEvent) (map[string]Histogram, int) {
	misses := newQueues[rbKey](len(events)) // per (processor, block): miss events awaiting an install
	var counts = map[string][stats.NumLatencyBuckets]int64{}
	var totals = map[string]int64{}
	for i := range events {
		e := &events[i]
		switch e.Op {
		case "miss":
			misses.push(rbKey{e.Proc, e.BaseLine}, int32(i))
		case "install":
			m := misses.pop(rbKey{e.Proc, e.BaseLine})
			if m < 0 {
				continue
			}
			kind := "unknown"
			if e.Typed {
				kind = e.Grant.String()
			}
			c := counts[kind]
			c[stats.LatencyBucket(e.Time-events[m].Time)]++
			counts[kind] = c
			totals[kind]++
		}
	}
	hists := map[string]Histogram{}
	for kind, c := range counts {
		hists[kind] = trimHistogram(c, totals[kind])
	}
	return hists, misses.n
}

// FormatBreakdown renders a snapshot's per-processor breakdown as an aligned
// table: cycles per category, idle slack, the downgrade memo and the exact
// total. Deterministic for identical snapshots.
func FormatBreakdown(s *Snapshot) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-5s %10s %10s %10s %10s %10s %10s %10s %10s %12s\n",
		"proc", "task", "read", "write", "sync", "message", "other", "idle", "dgrade*", "total")
	var tot BreakdownEntry
	for _, e := range s.Breakdown {
		fmt.Fprintf(&b, "p%-4d %10d %10d %10d %10d %10d %10d %10d %10d %12d\n",
			e.Proc, e.Task, e.Read, e.Write, e.Sync, e.Message, e.Other,
			e.Idle, e.Downgrade, e.Total)
		tot.Task += e.Task
		tot.Read += e.Read
		tot.Write += e.Write
		tot.Sync += e.Sync
		tot.Message += e.Message
		tot.Other += e.Other
		tot.Idle += e.Idle
		tot.Downgrade += e.Downgrade
		tot.Total += e.Total
	}
	fmt.Fprintf(&b, "%-5s %10d %10d %10d %10d %10d %10d %10d %10d %12d\n",
		"sum", tot.Task, tot.Read, tot.Write, tot.Sync, tot.Message, tot.Other,
		tot.Idle, tot.Downgrade, tot.Total)
	fmt.Fprintf(&b, "parallel time %d cycles x %d procs; *downgrade overlaps message/stall time\n",
		s.Cycles, len(s.Breakdown))
	return b.String()
}

// TraceBreakdown approximates a per-processor activity profile from a trace
// alone: for each processor, the span between its first and last event and
// the number of events per op. It cannot reproduce the exact cycle
// attribution of the metrics document (use shastatrace breakdown on a
// METRICS_*.json for that); it exists so a bare trace still yields a rough
// where-did-time-go view.
func TraceBreakdown(events []protocol.TraceEvent) string {
	type span struct {
		first, last int64
		byOp        map[string]int
		n           int
	}
	procs := map[int]*span{}
	for _, e := range events {
		s := procs[e.Proc]
		if s == nil {
			s = &span{first: e.Time, last: e.Time, byOp: map[string]int{}}
			procs[e.Proc] = s
		}
		if e.Time < s.first {
			s.first = e.Time
		}
		if e.Time > s.last {
			s.last = e.Time
		}
		s.byOp[e.Op]++
		s.n++
	}
	ids := make([]int, 0, len(procs))
	for p := range procs {
		ids = append(ids, p)
	}
	sort.Ints(ids)
	var b strings.Builder
	b.WriteString("trace-derived activity (approximate; use a metrics snapshot for exact cycles)\n")
	for _, p := range ids {
		s := procs[p]
		fmt.Fprintf(&b, "p%-3d %8d events, active t=%d..%d (%d cycles)\n",
			p, s.n, s.first, s.last, s.last-s.first)
		for _, op := range stats.SortedKeys(s.byOp) {
			fmt.Fprintf(&b, "       %-10s %d\n", op, s.byOp[op])
		}
	}
	return b.String()
}
