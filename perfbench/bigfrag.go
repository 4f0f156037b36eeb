package main

import (
	"runtime"

	parbox "repro"
	"repro/internal/xmark"
)

// bigFragCopies is how many times each pool query occurs in one round.
const bigFragCopies = 4

// runBigFrag is eval-bigfrag: an FT3 document of about 140k nodes in 8
// fragments over 4 in-process sites, queried with solo Boolean ParBoX
// rounds. Site-side bottomUp on the constant plane does nearly all the
// work and only a few hundred bytes travel.
func runBigFrag(b *bench) error {
	spec := docSpec{parents: xmark.FT3Parents(), mbs: xmark.FT3MBs(2)}
	if b.cfg.small {
		spec.nodesPerMB = 100
	}
	srcs := benchQueries()
	type deployment struct {
		sys *parbox.System
		qs  []*parbox.Prepared
	}
	dep, err := setup(b, func() (deployment, error) {
		forest, assign, err := spec.build(b.cfg.seed)
		if err != nil {
			return deployment{}, err
		}
		sys, err := parbox.Deploy(forest, assign)
		if err != nil {
			return deployment{}, err
		}
		qs, err := b.prepareAll(srcs)
		if err != nil {
			return deployment{}, err
		}
		for _, q := range qs { // warm-up: one round of each query
			if _, err := sys.Exec(bg, q); err != nil {
				return deployment{}, err
			}
		}
		return deployment{sys, qs}, nil
	}, func(d deployment) { d.sys.Close() })
	if err != nil {
		return err
	}
	defer dep.sys.Close()

	want, err := b.oracle(spec, srcs)
	if err != nil {
		return err
	}
	pool := make([]checkedQuery, len(srcs))
	var sizes []float64
	for i := range srcs {
		pool[i] = checkedQuery{src: srcs[i], q: dep.qs[i], want: want[i]}
		sizes = append(sizes, float64(dep.qs[i].QListSize()))
	}

	err = b.measure(func(r int) error {
		b.shuffledRound(r, len(pool), bigFragCopies, func(i int) { b.execQuery(dep.sys, pool[i]) })
		return nil
	})
	if err != nil {
		return err
	}
	b.queryMetrics()
	b.e2e["heap_mb"] = heapMB()
	runtime.KeepAlive(dep)
	b.soloLayerMetrics(len(spec.parents))
	b.lanesPerRound(sizes)
	return nil
}
