package obsv

import (
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/protocol"
	"repro/internal/stats"
)

// MetricsSchema names the metrics document format, and MetricsVersion its
// current version. The field names of Snapshot and its sub-structs are part
// of the versioned contract (see OBSERVABILITY.md): removing or renaming a
// field requires a version bump; adding fields does not.
const (
	MetricsSchema  = "shasta-metrics"
	MetricsVersion = 1
)

// ConfigInfo records the run configuration a snapshot was taken under.
type ConfigInfo struct {
	Procs        int    `json:"procs"`
	ProcsPerNode int    `json:"procs_per_node"`
	Clustering   int    `json:"clustering"`
	LineSize     int    `json:"line_size"`
	Hardware     bool   `json:"hardware"`
	Variant      string `json:"variant"` // "base", "smp" or "hardware"
}

// Totals aggregates counters across all processors.
type Totals struct {
	// Misses maps "<kind>-<hops>hop" (e.g. "read-2hop") to miss counts,
	// with only non-zero entries present.
	Misses      map[string]int64 `json:"misses"`
	TotalMisses int64            `json:"total_misses"`
	// Messages maps the Figure 7 classes ("remote", "local", "downgrade")
	// to protocol message counts.
	Messages      map[string]int64 `json:"messages"`
	TotalMessages int64            `json:"total_messages"`
	// TimeBy maps the Figure 4/5 breakdown categories ("task", "read",
	// "write", "sync", "message", "other") to cycles summed across
	// processors.
	TimeBy map[string]int64 `json:"time_by"`
	// Downgrades[n] counts block downgrades that required n downgrade
	// messages (Figure 8).
	Downgrades [stats.MaxDowngradeFanout + 1]int64 `json:"downgrades"`

	MergedMisses int64 `json:"merged_misses"`
	LocalHits    int64 `json:"local_hits"`
	Checks       int64 `json:"checks"`
	FalseMisses  int64 `json:"false_misses"`
	StallEvents  int64 `json:"stall_events"`

	// Handler occupancy: cycles spent in top-level protocol message
	// dispatches, and how many there were.
	HandlerCycles int64 `json:"handler_cycles"`
	HandlerEvents int64 `json:"handler_events"`
	// Line-lock hold time (SMP-Shasta only; zero under Base-Shasta).
	LockHoldCycles int64 `json:"lock_hold_cycles"`
	LockAcquires   int64 `json:"lock_acquires"`

	// Online home migrations decided and tombstone forwards relayed
	// (zero unless the protocol's Migrate option is enabled; compatible
	// snapshot extension).
	Migrations  int64 `json:"migrations,omitempty"`
	MigForwards int64 `json:"mig_forwards,omitempty"`

	AvgReadLatencyMicros float64 `json:"avg_read_latency_us"`
}

// NetworkMetrics snapshots the interconnect model's counters.
type NetworkMetrics struct {
	RemoteSends int64 `json:"remote_sends"`
	LocalSends  int64 `json:"local_sends"`
	RemoteBytes int64 `json:"remote_bytes"`
	// LinkWaitCycles is the total time messages queued behind a busy
	// Memory Channel link; MaxLinkBacklogCycles the largest single wait.
	LinkWaitCycles       int64 `json:"link_wait_cycles"`
	MaxLinkBacklogCycles int64 `json:"max_link_backlog_cycles"`
	// LinkBusyCycles is, per node, the cycles its outgoing link spent
	// serializing data.
	LinkBusyCycles []int64 `json:"link_busy_cycles"`
	// PeakInboxDepth is, per processor, the deepest its simulation inbox
	// ever got.
	PeakInboxDepth []int `json:"peak_inbox_depth"`
}

// ProcMetrics is one processor's slice of the counters.
type ProcMetrics struct {
	Proc           int              `json:"proc"`
	TimeBy         map[string]int64 `json:"time_by"`
	Misses         map[string]int64 `json:"misses"`
	Messages       map[string]int64 `json:"messages"`
	HandlerCycles  int64            `json:"handler_cycles"`
	HandlerEvents  int64            `json:"handler_events"`
	LockHoldCycles int64            `json:"lock_hold_cycles"`
	LockAcquires   int64            `json:"lock_acquires"`
	Checks         int64            `json:"checks"`
}

// BreakdownEntry is one processor's row of the measured execution-time
// profile (the paper's Figure 4/5 bars, in cycles rather than fractions).
// The six category fields plus Idle sum exactly to Total, and Total equals
// the snapshot's Cycles; Downgrade is an overlapping memo (cycles already
// counted under Message or the enclosing stall category) isolating the
// SMP-Shasta downgrade machinery. Added in a compatible extension of
// metrics v1.
type BreakdownEntry struct {
	Proc      int   `json:"proc"`
	Task      int64 `json:"task"`
	Read      int64 `json:"read"`
	Write     int64 `json:"write"`
	Sync      int64 `json:"sync"`
	Message   int64 `json:"message"`
	Other     int64 `json:"other"`
	Idle      int64 `json:"idle"`
	Downgrade int64 `json:"downgrade"`
	Total     int64 `json:"total"`
}

// Histogram is a fixed-bucket latency histogram: Buckets[b] counts samples
// in [2^(b-1), 2^b) cycles (bucket 0 counts zero-cycle samples), with
// trailing zero buckets trimmed. The power-of-two buckets make histograms of
// identical runs byte-identical. Added in a compatible extension of metrics
// v1.
type Histogram struct {
	Buckets []int64 `json:"buckets"`
	Count   int64   `json:"count"`
}

// SyncMetrics is one application synchronization primitive's row of the
// per-primitive contention table: a lock allocated by AllocLock, or the
// global barrier. Counters are summed across processors from the
// requester-side shards; unlike the other counters they cover the whole run
// (they are not reset by mid-run stat resets), so they reconcile exactly
// with totals derived from a full trace. Added in a compatible extension of
// metrics v1 (see OBSERVABILITY.md §12).
type SyncMetrics struct {
	Kind string `json:"kind"` // "lock" or "barrier"
	ID   int    `json:"id"`
	// Acquires counts completed lock acquisitions, Contended the subset
	// granted off the release path (another processor held the lock).
	Acquires  int64 `json:"acquires,omitempty"`
	Contended int64 `json:"contended,omitempty"`
	// WaitCycles is total acquire-to-grant (or barrier arrive-to-depart)
	// stall time; HoldCycles total grant-to-release time.
	WaitCycles int64 `json:"wait_cycles"`
	HoldCycles int64 `json:"hold_cycles,omitempty"`
	// Handoffs classifies lock grants by the previous holder's topological
	// distance ("self", "node", "group", "remote"); only non-zero classes
	// appear.
	Handoffs map[string]int64 `json:"handoffs,omitempty"`
	// Generations is the number of completed barrier generations.
	Generations int64 `json:"generations,omitempty"`
}

// Snapshot is the metrics document: one run's counters frozen at snapshot
// time. Because the simulator is deterministic and JSON object keys are
// emitted in sorted order, two runs of the same program and configuration
// produce byte-identical snapshots.
type Snapshot struct {
	Schema  string     `json:"schema"`
	Version int        `json:"version"`
	Config  ConfigInfo `json:"config"`
	// Cycles is the measured parallel time in cycles; Micros the same in
	// microseconds of the 300 MHz virtual clock.
	Cycles  int64          `json:"cycles"`
	Micros  float64        `json:"micros"`
	Totals  Totals         `json:"totals"`
	Network NetworkMetrics `json:"network"`
	Procs   []ProcMetrics  `json:"procs"`
	// Breakdown is the per-processor execution-time profile of the
	// measured phase (present when the run completed normally).
	Breakdown []BreakdownEntry `json:"breakdown,omitempty"`
	// Histograms maps "<kind>-<local|remote>" (miss request type crossed
	// with home-node distance, e.g. "read-remote") to miss round-trip
	// latency histograms; only non-empty histograms appear.
	Histograms map[string]Histogram `json:"histograms,omitempty"`
	// Blocks is the sharing-pattern observatory: the BlocksCap most active
	// coherence blocks with per-block counters, classified sharing pattern
	// and placement advice; BlocksTotal counts every block with attributed
	// activity. Added in a compatible extension of metrics v1 (see
	// OBSERVABILITY.md §7).
	Blocks      []BlockMetrics `json:"blocks,omitempty"`
	BlocksTotal int            `json:"blocks_total,omitempty"`
	// Sync is the per-primitive application synchronization table, sorted
	// locks-then-barrier by id. Added in a compatible extension of metrics
	// v1 (see OBSERVABILITY.md §12).
	Sync []SyncMetrics `json:"sync,omitempty"`
}

func timeByMap(p *stats.Proc) map[string]int64 {
	m := make(map[string]int64, stats.NumTimeCategories)
	for c := stats.TimeCategory(0); c < stats.NumTimeCategories; c++ {
		m[c.String()] = p.TimeBy[c]
	}
	return m
}

// addMisses adds the positive entries of a miss counter array (by kind, 2
// or 3 hops) to m under "<kind>-<hops>hop" keys, and returns m.
func addMisses(m map[string]int64, misses *[stats.NumMissKinds][2]int64) map[string]int64 {
	for k := stats.MissKind(0); k < stats.NumMissKinds; k++ {
		for i, hops := range []int{2, 3} {
			if n := misses[k][i]; n > 0 {
				m[fmt.Sprintf("%s-%dhop", k, hops)] += n
			}
		}
	}
	return m
}

func msgMap(p *stats.Proc) map[string]int64 {
	m := make(map[string]int64, stats.NumMsgClasses)
	for c := stats.MsgClass(0); c < stats.NumMsgClasses; c++ {
		m[c.String()] = p.Messages[c]
	}
	return m
}

// Snap freezes the system's counters into a Snapshot. It only reads state —
// no virtual clock moves — so it can be taken at any quiescent point; the
// normal place is after System.Run returns.
func Snap(sys *protocol.System) *Snapshot {
	cfg := sys.Config()
	run := sys.Stats()
	net := sys.Network()
	eng := sys.Engine()

	variant := "base"
	switch {
	case cfg.Hardware:
		variant = "hardware"
	case cfg.SMP():
		variant = "smp"
	}

	s := &Snapshot{
		Schema:  MetricsSchema,
		Version: MetricsVersion,
		Config: ConfigInfo{
			Procs:        cfg.NumProcs,
			ProcsPerNode: cfg.ProcsPerNode,
			Clustering:   cfg.Clustering,
			LineSize:     cfg.LineSize,
			Hardware:     cfg.Hardware,
			Variant:      variant,
		},
		Cycles: run.Cycles,
		Micros: run.Microseconds(run.Cycles),
	}

	t := &s.Totals
	t.Misses = map[string]int64{}
	t.Messages = make(map[string]int64, stats.NumMsgClasses)
	t.TimeBy = make(map[string]int64, stats.NumTimeCategories)
	for c := stats.MsgClass(0); c < stats.NumMsgClasses; c++ {
		t.Messages[c.String()] = run.MessagesBy(c)
	}
	for c := stats.TimeCategory(0); c < stats.NumTimeCategories; c++ {
		t.TimeBy[c.String()] = run.TimeBy(c)
	}
	for k := stats.MissKind(0); k < stats.NumMissKinds; k++ {
		for _, hops := range []int{2, 3} {
			if n := run.MissesBy(k, hops); n > 0 {
				t.Misses[fmt.Sprintf("%s-%dhop", k, hops)] = n
			}
		}
	}
	t.TotalMisses = run.TotalMisses()
	t.TotalMessages = run.TotalMessages()
	for i := range run.Procs {
		p := &run.Procs[i]
		for n, c := range p.Downgrades {
			t.Downgrades[n] += c
		}
		t.MergedMisses += p.MergedMisses
		t.LocalHits += p.LocalHits
		t.Checks += p.ChecksExecuted
		t.FalseMisses += p.FalseMisses
		t.StallEvents += p.StallEvents
		t.Migrations += p.Migrations
		t.MigForwards += p.MigForwards
	}
	t.HandlerCycles, t.HandlerEvents = run.HandlerOccupancy()
	t.LockHoldCycles, t.LockAcquires = run.LockHolds()
	t.AvgReadLatencyMicros = run.AvgReadLatencyMicros()

	s.Network = NetworkMetrics{
		RemoteSends:          net.RemoteSends(),
		LocalSends:           net.LocalSends(),
		RemoteBytes:          net.RemoteBytes(),
		LinkWaitCycles:       net.LinkWait(),
		MaxLinkBacklogCycles: net.MaxLinkBacklog(),
		LinkBusyCycles:       net.LinkBusy(),
	}
	s.Network.PeakInboxDepth = make([]int, eng.NumProcs())
	for i := 0; i < eng.NumProcs(); i++ {
		s.Network.PeakInboxDepth[i] = eng.Proc(i).PeakInboxDepth()
	}

	for i := range run.Measured {
		m := &run.Measured[i]
		s.Breakdown = append(s.Breakdown, BreakdownEntry{
			Proc:      i,
			Task:      m.TimeBy[stats.Task],
			Read:      m.TimeBy[stats.Read],
			Write:     m.TimeBy[stats.Write],
			Sync:      m.TimeBy[stats.Sync],
			Message:   m.TimeBy[stats.Message],
			Other:     m.TimeBy[stats.Other],
			Idle:      m.Idle,
			Downgrade: m.Downgrade,
			Total:     m.Total(),
		})
	}
	for k := stats.MissKind(0); k < stats.NumMissKinds; k++ {
		for d, dist := range []string{"local", "remote"} {
			buckets, count := run.MissLatencyBy(k, d)
			if count == 0 {
				continue
			}
			if s.Histograms == nil {
				s.Histograms = map[string]Histogram{}
			}
			s.Histograms[fmt.Sprintf("%s-%s", k, dist)] = trimHistogram(buckets, count)
		}
	}

	s.Blocks, s.BlocksTotal = buildBlocks(sys)

	ids, syncTotals := run.SyncTotals()
	for i, id := range ids {
		st := &syncTotals[i]
		sm := SyncMetrics{
			Kind:        id.Kind.String(),
			ID:          id.ID,
			Acquires:    st.Acquires,
			Contended:   st.Contended,
			WaitCycles:  st.WaitCycles,
			HoldCycles:  st.HoldCycles,
			Generations: st.Generations,
		}
		for c, n := range st.Handoffs {
			if n > 0 {
				if sm.Handoffs == nil {
					sm.Handoffs = map[string]int64{}
				}
				sm.Handoffs[stats.HandoffClassName(c)] = n
			}
		}
		s.Sync = append(s.Sync, sm)
	}

	s.Procs = make([]ProcMetrics, len(run.Procs))
	for i := range run.Procs {
		p := &run.Procs[i]
		s.Procs[i] = ProcMetrics{
			Proc:           i,
			TimeBy:         timeByMap(p),
			Misses:         addMisses(map[string]int64{}, &p.Misses),
			Messages:       msgMap(p),
			HandlerCycles:  p.HandlerCycles,
			HandlerEvents:  p.HandlerEvents,
			LockHoldCycles: p.LockHoldCycles,
			LockAcquires:   p.LockAcquires,
			Checks:         p.ChecksExecuted,
		}
	}
	return s
}

// WriteJSON writes the snapshot as indented JSON (with a trailing newline).
// Go sorts JSON object keys, so the output is deterministic.
func (s *Snapshot) WriteJSON(w io.Writer) error {
	b, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	_, err = w.Write(b)
	return err
}

// ReadSnapshot parses a metrics document, validating its schema name and
// version.
func ReadSnapshot(r io.Reader) (*Snapshot, error) {
	var s Snapshot
	dec := json.NewDecoder(r)
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("obsv: bad metrics document: %w", err)
	}
	if s.Schema != MetricsSchema {
		return nil, fmt.Errorf("obsv: not a %s document (schema %q)", MetricsSchema, s.Schema)
	}
	if s.Version > MetricsVersion {
		return nil, fmt.Errorf("obsv: metrics version %d is newer than supported version %d",
			s.Version, MetricsVersion)
	}
	return &s, nil
}
