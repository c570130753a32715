package obs

import (
	"fmt"
	"io"
	"slices"
	"sort"
	"strings"
	"time"

	"dnnlock/internal/metrics"
)

// Rendering and verification of parsed traces, shared by `dnnlock trace`
// and the tests. A trace may hold several anchors (one per attack of a
// Table 1 cell or daemon job); every view is computed per anchor.

// Anchors returns the trace's anchor spans (attack roots) in file order.
func (t *Trace) Anchors() []SpanRecord {
	var out []SpanRecord
	for _, s := range t.Spans {
		if s.Anchor {
			out = append(out, s)
		}
	}
	return out
}

// children indexes the span tree.
func (t *Trace) children() map[uint64][]SpanRecord {
	out := make(map[uint64][]SpanRecord, len(t.Spans))
	for _, s := range t.Spans {
		out[s.Parent] = append(out[s.Parent], s)
	}
	for _, kids := range out {
		sort.Slice(kids, func(i, j int) bool {
			if kids[i].StartNS != kids[j].StartNS {
				return kids[i].StartNS < kids[j].StartNS
			}
			return kids[i].ID < kids[j].ID
		})
	}
	return out
}

// RollupFromSpans sums the durations, query counts, round counts, and
// simulated channel times of the proc-labelled spans under root, per
// procedure: the anchor's Figure 3 breakdown. A procedure with a phase
// under root has an entry in times, queries and rounds; sim holds only
// nonzero entries.
func (t *Trace) RollupFromSpans(root uint64) (times, queries, rounds, sim map[string]int64) {
	times = map[string]int64{}
	queries = map[string]int64{}
	rounds = map[string]int64{}
	sim = map[string]int64{}
	kids := t.children()
	stack := append([]SpanRecord(nil), kids[root]...)
	for len(stack) > 0 {
		s := stack[len(stack)-1]
		stack = append(stack[:len(stack)-1], kids[s.ID]...)
		if s.Proc == "" {
			continue
		}
		times[s.Proc] += s.DurNS
		queries[s.Proc] += s.Queries
		rounds[s.Proc] += s.Rounds
		if s.SimNS != 0 {
			sim[s.Proc] += s.SimNS
		}
	}
	return times, queries, rounds, sim
}

// Check verifies a trace's internal consistency: it holds at least one
// anchor, and for every anchor the procedure times sum
//
//  1. to no more than the anchor span's duration (procedures are disjoint
//     sequential phases), and
//  2. to no less than minCover of it (the breakdown explains the wall time
//     up to setup/teardown).
//
// ReadTrace has already checked that the span tree is walkable (no shared
// IDs, no cycles). This is the `dnnlock trace -check` smoke in
// scripts/check.sh.
func (t *Trace) Check(minCover float64) error {
	anchors := t.Anchors()
	if len(anchors) == 0 {
		return fmt.Errorf("trace holds no anchors (no attack root spans)")
	}
	for _, a := range anchors {
		times, _, _, _ := t.RollupFromSpans(a.ID)
		var sum int64
		for _, ns := range times {
			sum += ns
		}
		// 1% slack for clock granularity on very short runs.
		if float64(sum) > 1.01*float64(a.DurNS) {
			return fmt.Errorf("anchor %d (%s): procedures sum to %v, more than the span's %v",
				a.ID, a.Name, time.Duration(sum), time.Duration(a.DurNS))
		}
		if float64(sum) < minCover*float64(a.DurNS) {
			return fmt.Errorf("anchor %d (%s): procedures cover only %v of %v (< %.0f%%)",
				a.ID, a.Name, time.Duration(sum), time.Duration(a.DurNS), 100*minCover)
		}
	}
	return nil
}

// BreakdownTable renders each anchor's rollup as the Figure 3 table: one
// row per procedure with its share, duration, query count, and round
// count.
func (t *Trace) BreakdownTable(w io.Writer) {
	for _, a := range t.Anchors() {
		fmt.Fprintf(w, "%s (span %d, %s", a.Name, a.ID, time.Duration(a.DurNS).Round(time.Microsecond))
		if attrs := formatAttrs(a.Attrs); attrs != "" {
			fmt.Fprintf(w, ", %s", attrs)
		}
		fmt.Fprintln(w, ")")
		times, queries, rounds, sim := t.RollupFromSpans(a.ID)
		var total int64
		for _, ns := range times {
			total += ns
		}
		for _, proc := range procOrder(times) {
			ns := times[proc]
			pct := 0.0
			if total > 0 {
				pct = 100 * float64(ns) / float64(total)
			}
			fmt.Fprintf(w, "  %-22s %6.1f%%  %12v  %9d queries  %7d rounds",
				proc, pct, time.Duration(ns).Round(time.Microsecond), queries[proc], rounds[proc])
			if len(sim) > 0 {
				fmt.Fprintf(w, "  %12v simulated", time.Duration(sim[proc]).Round(time.Microsecond))
			}
			fmt.Fprintln(w)
		}
	}
}

// procOrder lists a rollup's procedures Figure-3 first, extras sorted.
func procOrder(times map[string]int64) []string {
	var out, extra []string
	for _, p := range metrics.AllProcedures {
		if _, ok := times[string(p)]; ok {
			out = append(out, string(p))
		}
	}
	for p := range times {
		if !slices.Contains(out, p) {
			extra = append(extra, p)
		}
	}
	sort.Strings(extra)
	return append(out, extra...)
}

// Flame renders the span tree as an indented, aggregated text summary: at
// each level, sibling spans with the same name merge into one line with
// their count, total duration, share of the parent, and query total. The
// per-layer view of where an attack's time went.
func (t *Trace) Flame(w io.Writer, maxDepth int) {
	kids := t.children()
	for _, root := range kids[0] {
		t.flameNode(w, []SpanRecord{root}, root.DurNS, 0, maxDepth, kids)
	}
}

type flameGroup struct {
	name    string
	count   int
	durNS   int64
	queries int64
	members []SpanRecord
}

func (t *Trace) flameNode(w io.Writer, group []SpanRecord, parentNS int64, depth, maxDepth int, kids map[uint64][]SpanRecord) {
	var g flameGroup
	g.name = group[0].Name
	for _, s := range group {
		g.count++
		g.durNS += s.DurNS
		g.queries += s.Queries
	}
	indent := strings.Repeat("  ", depth)
	pct := 100.0
	if parentNS > 0 {
		pct = 100 * float64(g.durNS) / float64(parentNS)
	}
	line := fmt.Sprintf("%s%s", indent, g.name)
	if g.count > 1 {
		line += fmt.Sprintf(" ×%d", g.count)
	}
	fmt.Fprintf(w, "%-42s %6.1f%%  %12v", line, pct, time.Duration(g.durNS).Round(time.Microsecond))
	if g.queries > 0 {
		fmt.Fprintf(w, "  %9d queries", g.queries)
	}
	if g.count == 1 {
		if attrs := formatAttrs(group[0].Attrs); attrs != "" {
			fmt.Fprintf(w, "  [%s]", attrs)
		}
	}
	fmt.Fprintln(w)
	if depth+1 >= maxDepth {
		return
	}
	// Group the merged members' children by name, preserving first-start
	// order among groups.
	var order []string
	byName := map[string][]SpanRecord{}
	for _, s := range group {
		for _, c := range kids[s.ID] {
			if _, ok := byName[c.Name]; !ok {
				order = append(order, c.Name)
			}
			byName[c.Name] = append(byName[c.Name], c)
		}
	}
	for _, name := range order {
		t.flameNode(w, byName[name], g.durNS, depth+1, maxDepth, kids)
	}
}

// formatAttrs renders a record's attributes deterministically (sorted keys).
func formatAttrs(attrs map[string]any) string {
	if len(attrs) == 0 {
		return ""
	}
	keys := make([]string, 0, len(attrs))
	for k := range attrs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, 0, len(keys))
	for _, k := range keys {
		parts = append(parts, fmt.Sprintf("%s=%v", k, attrs[k]))
	}
	return strings.Join(parts, " ")
}
