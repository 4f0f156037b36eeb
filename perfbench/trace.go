package main

import (
	"bufio"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/obs"
)

// breakdown is one traced operation's time split by layer, in
// nanoseconds, as the spans the program already emits describe it.
type breakdown struct {
	coordSelf    int64 // root span minus the union of its children
	rpc          int64 // union of the root's remote-call spans
	wire         int64 // remote-call spans minus the callee's handle span
	queue        int64 // server-side queue waits
	admit        int64 // gap between reaching the site and its handler starting
	bottomUp     int64 // bottomUp spans, summed over sites
	buSteps      int64 // steps those bottomUp spans report
	rootBottomUp int64 // bottomUp at the root fragment's site
	encode       int64 // encode spans, summed
	explained    int64 // self time along the blocking path of spans a layer metric reports
}

// spanIndex links a flat span list into its tree.
type spanIndex struct {
	spans []obs.Span
	kids  map[uint64][]int
}

func newSpanIndex(spans []obs.Span) *spanIndex {
	x := &spanIndex{spans: spans, kids: make(map[uint64][]int, len(spans))}
	for i, s := range spans {
		x.kids[s.Parent] = append(x.kids[s.Parent], i)
	}
	return x
}

func end(s obs.Span) int64 { return s.Start + s.Dur }

func isRemoteCall(name string) bool {
	return strings.HasPrefix(name, "rpc ") || strings.HasPrefix(name, "call ") || strings.HasPrefix(name, "transport ")
}

// union is the length of the union of the spans' intervals, clipped to
// [lo, hi).
func (x *spanIndex) union(idx []int, lo, hi int64) int64 {
	var iv [][2]int64
	for _, i := range idx {
		a, b := max(x.spans[i].Start, lo), min(end(x.spans[i]), hi)
		if a < b {
			iv = append(iv, [2]int64{a, b})
		}
	}
	if len(iv) == 0 {
		return 0
	}
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var total int64
	a, b := iv[0][0], iv[0][1]
	for _, v := range iv[1:] {
		if v[0] > b {
			total += b - a
			a, b = v[0], v[1]
		} else if v[1] > b {
			b = v[1]
		}
	}
	return total + b - a
}

// reported says whether a per-layer metric reports the self time of a
// span of this name: the operation's root (core.coord_self_ms), remote
// calls and their queueing and admission (cluster.*), bottomUp (eval.*)
// and encode (boolexpr.encode_ms). A site handler's own work outside
// bottomUp and encode, and any span the program adds later, is reported
// by none.
func reported(name string, root bool) bool {
	return root || isRemoteCall(name) || strings.HasPrefix(name, "admit ") ||
		name == "queue" || name == "bottomUp" || name == "encode"
}

// explained returns the self time of reported spans along the blocking
// path from span i down: walking back from the span's end, the child
// that ended last is the one the span waited for; before that child
// started, the child that ended last before then; and so on. The span's
// own share is what those children leave uncovered.
func (x *spanIndex) explained(i int, root bool) int64 {
	s := x.spans[i]
	kids := append([]int(nil), x.kids[s.ID]...)
	sort.Slice(kids, func(a, b int) bool { return end(x.spans[kids[a]]) > end(x.spans[kids[b]]) })
	cur := end(s)
	var total, covered int64
	for _, k := range kids {
		c := x.spans[k]
		if end(c) > cur || c.Start < s.Start || c.Name == "lane" {
			// It overlaps a later blocking child, began outside the span,
			// or is a coalesced round's attribution of a caller.
			continue
		}
		covered += c.Dur
		total += x.explained(k, false)
		cur = c.Start
	}
	if reported(s.Name, root) {
		total += s.Dur - covered
	}
	return total
}

// analyze breaks down one traced operation rooted at span root; coord is
// the coordinating site, which holds the root fragment.
func analyze(spans []obs.Span, root uint64, coord string) breakdown {
	x := newSpanIndex(spans)
	var bd breakdown
	ri := -1
	for i, s := range spans {
		if s.ID == root {
			ri = i
		}
	}
	if ri < 0 {
		return bd
	}
	// A coalesced round's "lane" spans attribute callers to the round;
	// they cover its whole length and do no work of their own.
	var kids []int
	for _, k := range x.kids[root] {
		if spans[k].Name != "lane" {
			kids = append(kids, k)
		}
	}
	lo, hi := spans[ri].Start, end(spans[ri])
	bd.coordSelf = spans[ri].Dur - x.union(kids, lo, hi)
	var remote []int
	for _, k := range kids {
		if isRemoteCall(spans[k].Name) {
			remote = append(remote, k)
		}
	}
	bd.rpc = x.union(remote, lo, hi)
	bd.explained = x.explained(ri, true)
	for _, s := range spans {
		switch {
		case s.Name == "queue":
			bd.queue += s.Dur
		case s.Name == "bottomUp":
			bd.bottomUp += s.Dur
			if st, ok := s.Attr("steps"); ok {
				bd.buSteps += st
			}
			if s.Site == coord {
				bd.rootBottomUp += s.Dur
			}
		case s.Name == "encode":
			bd.encode += s.Dur
		case strings.HasPrefix(s.Name, "rpc ") || strings.HasPrefix(s.Name, "call "):
			arrived := s.Start
			for _, k := range x.kids[s.ID] {
				if c := spans[k]; c.Name == "queue" {
					arrived = end(c)
				}
			}
			for _, k := range x.kids[s.ID] {
				if c := spans[k]; strings.HasPrefix(c.Name, "handle ") {
					bd.wire += s.Dur - c.Dur
					bd.admit += c.Start - arrived
				}
			}
		}
	}
	return bd
}

// recordBreakdown adds one traced query's breakdown to the samples; wall
// is the call's duration measured around it.
func (b *bench) recordBreakdown(bd breakdown, wall time.Duration) {
	b.recordLayers(bd)
	b.sample("wall_ns", float64(wall.Nanoseconds()))
	b.sample("explained_ns", float64(bd.explained))
}

// recordLayers adds one traced round's layer split to the samples.
func (b *bench) recordLayers(bd breakdown) {
	b.sample("core.coord_self_ms", float64(bd.coordSelf)/1e6)
	b.sample("cluster.rpc_ms", float64(bd.rpc)/1e6)
	b.sample("cluster.wire_ms", float64(bd.wire)/1e6)
	b.sample("cluster.queue_ms", float64(bd.queue)/1e6)
	b.sample("cluster.admit_ms", float64(bd.admit)/1e6)
	b.sample("eval.bottomup_ms", float64(bd.bottomUp)/1e6)
	b.sample("eval.root_bottomup_ms", float64(bd.rootBottomUp)/1e6)
	b.sample("boolexpr.encode_ms", float64(bd.encode)/1e6)
	b.sample("bu_ns", float64(bd.bottomUp))
	b.sample("bu_steps", float64(bd.buSteps))
}

// layerMetrics turns the traced phase's breakdown samples into the
// per-layer metrics shared by every workload.
func (b *bench) layerMetrics() {
	r := b.rec
	for _, name := range []string{
		"core.coord_self_ms", "cluster.rpc_ms", "cluster.wire_ms", "cluster.queue_ms",
		"cluster.admit_ms", "eval.bottomup_ms", "eval.root_bottomup_ms", "boolexpr.encode_ms",
	} {
		b.layer[name] = median(r.samples(name))
	}
	b.layer["eval.bottomup_ns_per_node_lane"] = ratio(sum(r.samples("bu_ns")), sum(r.samples("bu_steps")))
	wall := sum(r.samples("wall_ns"))
	b.layer["layers.unexplained_pct"] = 100 * ratio(wall-sum(r.samples("explained_ns")), wall)
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// scrapeCounters reads the summed value of every counter family of a
// Prometheus text exposition at url (labels are summed over).
func scrapeCounters(url string) (map[string]float64, error) {
	resp, err := http.Get(url)
	if err != nil {
		return nil, fmt.Errorf("scrape %s: %w", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scrape %s: %s", url, resp.Status)
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(val), 64)
		if err != nil {
			continue
		}
		out[name] += v
	}
	return out, sc.Err()
}
