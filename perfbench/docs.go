package main

import (
	"fmt"
	"sort"

	parbox "repro"
	"repro/internal/frag"
	"repro/internal/xmark"
	"repro/internal/xmltree"
	"repro/internal/xpath"
)

// numSites is the number of sites every deployment spreads its fragments
// over; fragment i lives at site S(i mod numSites), so the coordinator S0
// holds the root fragment.
const numSites = 4

// docSpec describes one generated document: a tree of xmark sites, each
// its own fragment.
type docSpec struct {
	parents    []int
	mbs        []float64
	nodesPerMB int
}

func (d docSpec) tree(seed int64) xmark.TreeSpec {
	return xmark.TreeSpec{Seed: seed, Parents: d.parents, MBs: d.mbs, NodesPerMB: d.nodesPerMB}
}

// build generates the document and fragments it, one fragment per xmark
// site, spread over numSites sites.
func (d docSpec) build(seed int64) (*frag.Forest, frag.Assignment, error) {
	root, siteRoots, err := xmark.BuildDoc(d.tree(seed))
	if err != nil {
		return nil, nil, err
	}
	forest, err := xmark.Fragment(root, siteRoots)
	if err != nil {
		return nil, nil, err
	}
	assign := frag.Assignment{}
	for i := range siteRoots {
		assign[xmltree.FragmentID(i)] = siteName(i % numSites)
	}
	return forest, assign, nil
}

// mirror generates an unfragmented copy of the same document, apart from
// the deployed one, for the oracle. It also returns each fragment's root
// within the copy.
func (d docSpec) mirror(seed int64) (*xmltree.Node, []*xmltree.Node, error) {
	return xmark.BuildDoc(d.tree(seed))
}

func siteName(i int) frag.SiteID { return frag.SiteID(fmt.Sprintf("S%d", i)) }

// oracle answers srcs on a separately generated unfragmented copy of
// spec's document. The self-test's corruptOracle flips the first answer.
func (b *bench) oracle(spec docSpec, srcs []string) ([]bool, error) {
	mirror, _, err := spec.mirror(b.cfg.seed)
	if err != nil {
		return nil, err
	}
	want, err := oracleAnswers(mirror, srcs)
	if err != nil {
		return nil, err
	}
	if b.cfg.corruptOracle {
		want[0] = !want[0]
	}
	return want, nil
}

// oracleAnswers evaluates every query on the unfragmented mirror with the
// reference interpreter, which shares no code with the distributed
// evaluator.
func oracleAnswers(mirror *xmltree.Node, srcs []string) ([]bool, error) {
	out := make([]bool, len(srcs))
	for i, src := range srcs {
		e, err := xpath.Parse(src)
		if err != nil {
			return nil, fmt.Errorf("oracle: %q: %w", src, err)
		}
		out[i] = xpath.EvalRaw(e, mirror)
	}
	return out, nil
}

// benchQueries is the paper's query pool: the |QList| ∈ {2, 8, 15, 23}
// queries of Experiments 1 and 3 and the named BQ queries, in a fixed order.
func benchQueries() []string {
	var out []string
	for _, k := range xmark.QuerySizes() {
		out = append(out, xmark.Queries[k])
	}
	names := make([]string, 0, len(xmark.NamedQueries))
	for n := range xmark.NamedQueries {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		out = append(out, xmark.NamedQueries[n])
	}
	return out
}

// checkVisits verifies ParBoX's visit-once guarantee for one round: every
// participating site other than the coordinator served exactly one
// request, and the coordinator's own fragments cost no visit.
func checkVisits(visits map[parbox.SiteID]int64, st *frag.SourceTree, coord frag.SiteID) error {
	for _, s := range st.Sites() {
		want := int64(1)
		if s == coord {
			want = 0
		}
		if visits[s] != want {
			return fmt.Errorf("site %s visited %d times in one round, want %d", s, visits[s], want)
		}
	}
	for s := range visits {
		if len(st.FragmentsAt(s)) == 0 {
			return fmt.Errorf("site %s holds no fragment but was visited", s)
		}
	}
	return nil
}

// visitsPerSite is the mean number of visits per remote participating site.
func visitsPerSite(visits map[parbox.SiteID]int64, coord frag.SiteID) float64 {
	var n, total int64
	for s, v := range visits {
		if s != coord {
			n++
			total += v
		}
	}
	return ratio(float64(total), float64(n))
}

// answerErr reports a wrong answer.
func answerErr(src string, got, want bool) error {
	return fmt.Errorf("query %q answered %v, oracle says %v", src, got, want)
}
