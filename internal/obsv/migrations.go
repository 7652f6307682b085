package obsv

import (
	"fmt"
	"sort"
	"strings"
	"text/tabwriter"

	"repro/internal/protocol"
)

// MigrationReport renders a trace's online home-migration activity: the
// run's hand-off and forward totals, then one row per migrated block with
// its home chain (every home the directory entry visited, in order), the
// number of requests tombstones forwarded for it, and the virtual times of
// its first and last hand-off. The rows are sorted by hand-off count so the
// most mobile blocks lead; a block that migrates often under a stable
// access pattern is the signature of threshold ping-pong, which the
// hysteresis should prevent.
//
// The chain is reconstructed from "migrate" decision events (emitted by the
// old home, naming the target); "migfwd" events attribute forwards. A trace
// from a run without Config.Migrate yields an empty report.
func MigrationReport(events []protocol.TraceEvent) string {
	type chain struct {
		block       int
		homes       []int
		forwards    int
		migs        int
		first, last int64
	}
	chains := map[int]*chain{}
	var migs, installs, forwards int
	for _, e := range events {
		switch e.Op {
		case "migrate":
			if !e.Typed || e.Installed {
				// Installation event: counted, not chained — the decision
				// event already recorded the hop.
				installs++
				continue
			}
			migs++
			c := chains[e.BaseLine]
			if c == nil {
				c = &chain{block: e.BaseLine, homes: []int{e.Proc}, first: e.Time}
				chains[e.BaseLine] = c
			}
			c.homes = append(c.homes, int(e.Peer))
			c.migs++
			c.last = e.Time
		case "migfwd":
			forwards++
			if c := chains[e.BaseLine]; c != nil {
				c.forwards++
			}
		}
	}
	if migs == 0 {
		return "no migration events in trace\n"
	}

	rows := make([]*chain, 0, len(chains))
	for _, c := range chains {
		rows = append(rows, c)
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].migs != rows[j].migs {
			return rows[i].migs > rows[j].migs
		}
		return rows[i].block < rows[j].block
	})

	var b strings.Builder
	fmt.Fprintf(&b, "online home migration: %d hand-offs over %d blocks, %d installs, %d forwarded requests\n\n",
		migs, len(rows), installs, forwards)
	tw := tabwriter.NewWriter(&b, 2, 8, 2, ' ', 0)
	fmt.Fprintln(tw, "block\thand-offs\tforwards\thome chain\tfirst@\tlast@")
	for _, c := range rows {
		parts := make([]string, len(c.homes))
		for i, h := range c.homes {
			parts[i] = fmt.Sprintf("p%d", h)
		}
		fmt.Fprintf(tw, "%d\t%d\t%d\t%s\t%d\t%d\n",
			c.block, c.migs, c.forwards, strings.Join(parts, " > "), c.first, c.last)
	}
	tw.Flush()
	return b.String()
}
