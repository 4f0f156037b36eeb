package main

import (
	"fmt"
	"math/rand"

	parbox "repro"
	"repro/internal/xmltree"
)

// watch is one predicate the subscribed queries test: a node labelled
// parent with a child labelled child whose text is value. The generated
// documents never hold value, so only the update stream makes it true.
type watch struct{ parent, child, value string }

var watches = []watch{
	{"item", "location", "Atlantis"},
	{"address", "city", "Lemuria"},
	{"item", "payment", "Barter"},
	{"closed_auction", "price", "0.00"},
	{"open_auction", "type", "Featured"},
	{"item", "quantity", "0"},
	{"person", "phone", "+0"},
}

// subQuery is one subscribed query and its answer as a function of which
// watches currently hold somewhere in the document.
type subQuery struct {
	src    string
	answer func(on []bool) bool
	subs   int // standing subscriptions of the query
}

var subQueries = []subQuery{
	{`//item[location = "Atlantis"]`, func(on []bool) bool { return on[0] }, 160},
	{`//address[city = "Lemuria"]`, func(on []bool) bool { return on[1] }, 100},
	{`!(//item[payment = "Barter"])`, func(on []bool) bool { return !on[2] }, 70},
	{`//closed_auction[price = "0.00"] && //open_auction[type = "Featured"]`, func(on []bool) bool { return on[3] && on[4] }, 40},
	{`//item[quantity = "0"] || //person[phone = "+0"]`, func(on []bool) bool { return on[5] || on[6] }, 30},
}

// holder is a node of the mirror that currently makes a watch hold: a
// child whose text the stream set to the watched value (orig is the text
// to restore), or a leaf the stream inserted.
type holder struct {
	frag     int
	node     *xmltree.Node
	orig     string
	inserted bool
}

// updateOracle is the benchmark's own model of the document under the
// update stream: the unfragmented mirror, edited in step with the
// deployment, and per watch the nodes that make it hold. It answers the
// subscribed queries from those counts alone.
type updateOracle struct {
	roots   []*xmltree.Node // fragment roots within the mirror
	targets [][][]*xmltree.Node
	holders [][]holder // per watch
	isOn    map[*xmltree.Node]bool
}

// newUpdateOracle indexes the mirror: per fragment and watch, the child
// nodes an edit may set. Nodes below another fragment's root belong to
// that fragment.
func newUpdateOracle(roots []*xmltree.Node) *updateOracle {
	o := &updateOracle{roots: roots, holders: make([][]holder, len(watches)), isOn: map[*xmltree.Node]bool{}}
	isRoot := map[*xmltree.Node]bool{}
	for _, r := range roots {
		isRoot[r] = true
	}
	o.targets = make([][][]*xmltree.Node, len(roots))
	for f, r := range roots {
		o.targets[f] = make([][]*xmltree.Node, len(watches))
		var walk func(n *xmltree.Node)
		walk = func(n *xmltree.Node) {
			for _, c := range n.Children {
				if isRoot[c] {
					continue
				}
				for w, wt := range watches {
					if n.Label == wt.parent && c.Label == wt.child {
						o.targets[f][w] = append(o.targets[f][w], c)
					}
				}
				walk(c)
			}
		}
		walk(r)
	}
	return o
}

// answers evaluates every subscribed query from the holder counts.
func (o *updateOracle) answers() []bool {
	on := make([]bool, len(watches))
	for w := range watches {
		on[w] = len(o.holders[w]) > 0
	}
	out := make([]bool, len(subQueries))
	for i, q := range subQueries {
		out[i] = q.answer(on)
	}
	return out
}

// path is n's child-index path from its fragment's root.
func (o *updateOracle) path(frag int, n *xmltree.Node) ([]int, error) {
	var rev []int
	for n != o.roots[frag] {
		p := n.Parent
		if p == nil {
			return nil, fmt.Errorf("node %q is not inside fragment %d", n.Label, frag)
		}
		i := 0
		for i < len(p.Children) && p.Children[i] != n {
			i++
		}
		rev = append(rev, i)
		n = p
	}
	out := make([]int, len(rev))
	for i := range rev {
		out[i] = rev[len(rev)-1-i]
	}
	return out, nil
}

// next draws the next edit on a fragment of the given class (the
// fragments listed in frags) and applies it to the mirror: with
// probability 0.6 it undoes a holder of a randomly drawn watch in the
// class, otherwise it makes the watch hold on one more node, by setting
// a child's text or inserting a new leaf. It returns the fragment and the
// operation to send.
func (o *updateOracle) next(rng *rand.Rand, frags []int) (int, parbox.UpdateOp, error) {
	w := rng.Intn(len(watches))
	wt := watches[w]
	var mine []int
	for i, h := range o.holders[w] {
		for _, f := range frags {
			if h.frag == f {
				mine = append(mine, i)
			}
		}
	}
	if len(mine) > 0 && rng.Float64() < 0.6 {
		i := mine[rng.Intn(len(mine))]
		h := o.holders[w][i]
		path, err := o.path(h.frag, h.node)
		if err != nil {
			return 0, parbox.UpdateOp{}, err
		}
		o.holders[w] = append(o.holders[w][:i], o.holders[w][i+1:]...)
		delete(o.isOn, h.node)
		if h.inserted {
			p := h.node.Parent
			for k, c := range p.Children {
				if c == h.node {
					p.Children = append(p.Children[:k], p.Children[k+1:]...)
					break
				}
			}
			return h.frag, parbox.UpdateOp{Op: parbox.OpDelete, Path: path}, nil
		}
		h.node.Text = h.orig
		return h.frag, parbox.UpdateOp{Op: parbox.OpSetText, Path: path, Text: h.orig}, nil
	}
	var cands []int
	for _, f := range frags {
		if len(o.targets[f][w]) > 0 {
			cands = append(cands, f)
		}
	}
	if len(cands) == 0 {
		return 0, parbox.UpdateOp{}, fmt.Errorf("no fragment of %v holds a %s/%s to edit", frags, wt.parent, wt.child)
	}
	f := cands[rng.Intn(len(cands))]
	ts := o.targets[f][w]
	t := ts[rng.Intn(len(ts))]
	if rng.Intn(2) == 0 && !o.isOn[t] {
		path, err := o.path(f, t)
		if err != nil {
			return 0, parbox.UpdateOp{}, err
		}
		o.holders[w] = append(o.holders[w], holder{frag: f, node: t, orig: t.Text})
		o.isOn[t] = true
		t.Text = wt.value
		return f, parbox.UpdateOp{Op: parbox.OpSetText, Path: path, Text: wt.value}, nil
	}
	p := t.Parent
	path, err := o.path(f, p)
	if err != nil {
		return 0, parbox.UpdateOp{}, err
	}
	leaf := &xmltree.Node{Label: wt.child, Text: wt.value, Parent: p}
	p.Children = append(p.Children, leaf)
	o.holders[w] = append(o.holders[w], holder{frag: f, node: leaf, inserted: true})
	o.isOn[leaf] = true
	return f, parbox.UpdateOp{Op: parbox.OpInsert, Path: path, Label: wt.child, Text: wt.value}, nil
}

// countLabel counts the nodes labelled child under a parent labelled
// parent in the whole mirror.
func countLabel(root *xmltree.Node, parent, child string) int64 {
	var n int64
	var walk func(v *xmltree.Node)
	walk = func(v *xmltree.Node) {
		for _, c := range v.Children {
			if v.Label == parent && c.Label == child {
				n++
			}
			walk(c)
		}
	}
	walk(root)
	return n
}
