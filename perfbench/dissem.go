package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"time"

	parbox "repro"
	"repro/internal/xmark"
)

const (
	// dissemBurst is how many subscriber queries one burst issues at once:
	// 64, the burst of the repository's serve/coalesced-64q scenario and
	// the scheduler's default lane budget (parbox.DefaultCoalesceLanes).
	dissemBurst = 64
	// dissemBursts is the number of bursts in one round.
	dissemBursts = 2
	// dissemZipfS is the popularity skew over the query pool, an assumed
	// value: no measured subscriber traffic backs it (README).
	dissemZipfS = 1.1
)

// dissemPool is the pool of distinct subscriber queries: eight templates
// over the xmark vocabulary, each instantiated eight times, interleaved
// so that popularity rank r falls on template r mod 8.
func dissemPool() []string {
	countries := []string{"United States", "Germany", "Japan", "Brazil", "Kenya", "Australia", "Atlantis", "Lemuria"}
	cities := []string{"Seoul", "Edinburgh", "Boston", "Nairobi", "Osaka", "Recife", "Avalon", "Thule"}
	templates := []func(i int) string{
		func(i int) string { return fmt.Sprintf(`//item[location = %q]`, countries[i]) },
		func(i int) string { return fmt.Sprintf(`//address[city = %q]`, cities[i]) },
		func(i int) string { return fmt.Sprintf(`//open_auction[bidder/increase = "%d.00"]`, 1+7*i) },
		func(i int) string {
			return fmt.Sprintf(`//item[quantity = "%d"] && //closed_auction[quantity = "1"]`, i)
		},
		func(i int) string {
			return fmt.Sprintf(`//item[incategory = "category%d"] || //item[payment = "Barter"]`, i)
		},
		func(i int) string { return fmt.Sprintf(`!(//person[address/country = %q])`, countries[i]) },
		func(i int) string {
			return fmt.Sprintf(`//person[address[city = %q] && address/country = %q]`, cities[i], countries[(i+3)%8])
		},
		func(i int) string { return fmt.Sprintf(`//item[mailbox/mail/date = "2006-%02d-%02d"]`, 1+i, 1+3*i) },
	}
	var out []string
	for i := 0; i < 8; i++ {
		for _, t := range templates {
			out = append(out, t(i))
		}
	}
	return out
}

// runDissem is dissem-burst: bursts of concurrent subscriber queries,
// drawn with Zipf-skewed popularity from a pool of distinct queries,
// against a WithCoalescedServing deployment. The scheduler groups each
// burst into shared rounds run by the fused multi-lane kernel.
func runDissem(b *bench) error {
	spec := docSpec{parents: xmark.FT3Parents(), mbs: xmark.FT3MBs(1), nodesPerMB: 1000}
	if b.cfg.small {
		spec.nodesPerMB = 100
	}
	srcs := dissemPool()
	type deployment struct {
		sys *parbox.System
		qs  []*parbox.Prepared
	}
	dep, err := setup(b, func() (deployment, error) {
		forest, assign, err := spec.build(b.cfg.seed)
		if err != nil {
			return deployment{}, err
		}
		sys, err := parbox.Deploy(forest, assign, parbox.WithCoalescedServing(0, 0))
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
	sys := dep.sys
	st, coord := sys.SourceTree(), sys.Coordinator()

	// Per-round accounting: callers of one shared round see the same
	// Sched.Round report, which identifies the round.
	var mu sync.Mutex
	type roundInfo struct {
		lanes, members, qlist int
		spans                 bool
	}
	var rounds map[*parbox.BatchResult]*roundInfo // the current burst's rounds
	var members, lanes, sharing, solve, steps, msgs, bytes, visits []float64
	// fold adds the burst's traced rounds to the per-layer figures.
	fold := func() {
		for rep, ri := range rounds {
			if !ri.spans {
				continue
			}
			members = append(members, float64(ri.members))
			lanes = append(lanes, float64(ri.lanes))
			sharing = append(sharing, ratio(float64(ri.qlist), float64(ri.lanes)))
			solve = append(solve, float64(rep.SolveWork))
			steps = append(steps, float64(rep.TotalSteps))
			msgs = append(msgs, float64(rep.Messages))
			bytes = append(bytes, float64(rep.Bytes))
			visits = append(visits, visitsPerSite(rep.Visits, coord))
		}
	}

	call := func(i int) {
		cq := checkedQuery{src: srcs[i], q: dep.qs[i], want: want[i]}
		var opts []parbox.ExecOption
		traced := b.traced
		if traced {
			opts = append(opts, parbox.WithSpans())
		}
		start := time.Now()
		res, err := sys.Exec(bg, cq.q, opts...)
		wall := time.Since(start)
		if err == nil && res.Sched == nil {
			err = fmt.Errorf("query %q was not served by the coalescing scheduler", cq.src)
		}
		if err != nil {
			b.rec.attempt("query", err, false)
			return
		}
		if res.Answer != cq.want {
			b.rec.attempt("query", answerErr(cq.src, res.Answer, cq.want), true)
			return
		}
		round := res.Sched.Round
		mu.Lock()
		ri, seen := rounds[round]
		if !seen {
			ri = &roundInfo{lanes: res.Sched.RoundLanes}
			rounds[round] = ri
		}
		ri.members++
		ri.qlist += cq.q.QListSize()
		first := traced && !ri.spans
		if first {
			ri.spans = true
		}
		mu.Unlock()
		if !seen {
			if err := checkVisits(round.Visits, st, coord); err != nil {
				b.rec.attempt("query", err, true)
				return
			}
		}
		b.rec.attempt("query", nil, false)
		b.rec.query(wall, res.Bytes)
		b.sample("sched_wait_ms", ms(res.Sched.Waited))
		if traced {
			// The round's blocking path covers the call once admitted;
			// before that the caller waited in the scheduler.
			for _, s := range res.Spans {
				if s.Name == "round" {
					bd := analyze(res.Spans, s.ID, string(coord))
					b.sample("wall_ns", float64(wall.Nanoseconds()))
					b.sample("explained_ns", float64(bd.explained+res.Sched.Waited.Nanoseconds()))
					if first {
						b.recordLayers(bd)
						b.keepTrace(fmt.Sprintf("round of %d", res.Sched.RoundQueries), wall, res.Spans)
					}
					break
				}
			}
		}
	}

	burst := make([]int, dissemBurst)
	err = b.measure(func(r int) error {
		rng := rand.New(rand.NewSource(b.cfg.seed*1_000_003 + int64(r)))
		z := rand.NewZipf(rng, dissemZipfS, 1, uint64(len(srcs)-1))
		for k := 0; k < dissemBursts; k++ {
			rounds = map[*parbox.BatchResult]*roundInfo{}
			for i := range burst {
				burst[i] = int(z.Uint64())
			}
			var wg sync.WaitGroup
			for _, qi := range burst {
				wg.Add(1)
				go func(qi int) {
					defer wg.Done()
					call(qi)
				}(qi)
			}
			wg.Wait()
			fold()
		}
		return nil
	})
	if err != nil {
		return err
	}
	rounds = nil
	b.queryMetrics()
	b.e2e["heap_mb"] = heapMB()
	runtime.KeepAlive(dep)

	b.layerMetrics()
	q := sum(members)
	b.layer["parbox.sched_wait_ms"] = median(b.rec.samples("sched_wait_ms"))
	b.layer["parbox.queries_per_round"] = mean(members)
	b.layer["parbox.lanes_per_round"] = mean(lanes)
	b.layer["parbox.lane_sharing"] = mean(sharing)
	b.layer["core.solve_work_per_query"] = ratio(sum(solve), q)
	b.layer["core.visits_per_site"] = mean(visits)
	b.layer["cluster.messages_per_query"] = ratio(sum(msgs), q)
	b.layer["cluster.bytes_per_fragment"] = ratio(sum(bytes), q*float64(len(spec.parents)))
	b.layer["eval.steps_per_query"] = ratio(sum(steps), q)
	return nil
}
