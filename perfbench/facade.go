package main

import (
	"context"
	"time"

	parbox "repro"
)

// prepareAll prepares and compiles every query, timing each; the mean
// time per query is xpath.prepare_us.
func (b *bench) prepareAll(srcs []string) ([]*parbox.Prepared, error) {
	qs := make([]*parbox.Prepared, len(srcs))
	var total time.Duration
	for i, src := range srcs {
		start := time.Now()
		q, err := parbox.Prepare(src)
		if err != nil {
			return nil, err
		}
		q.QListSize() // compiles the QList program
		total += time.Since(start)
		qs[i] = q
	}
	b.layer["xpath.prepare_us"] = float64(total.Microseconds()) / float64(len(srcs))
	return qs, nil
}

// checkedQuery is one Boolean query and its oracle answer.
type checkedQuery struct {
	src  string
	q    *parbox.Prepared
	want bool
}

// execQuery runs one solo Boolean ParBoX query through System.Exec,
// checks its answer and the visit-once guarantee, and records it. It
// returns the result, nil when the operation failed.
func (b *bench) execQuery(sys *parbox.System, cq checkedQuery) *parbox.Result {
	var opts []parbox.ExecOption
	traced := b.traced
	if traced {
		opts = append(opts, parbox.WithSpans())
	}
	start := time.Now()
	res, err := sys.Exec(context.Background(), cq.q, opts...)
	wall := time.Since(start)
	if err != nil {
		b.rec.attempt("query", err, false)
		return nil
	}
	if res.Answer != cq.want {
		b.rec.attempt("query", answerErr(cq.src, res.Answer, cq.want), true)
		return nil
	}
	coord := sys.Coordinator()
	if err := checkVisits(res.Visits, sys.SourceTree(), coord); err != nil {
		b.rec.attempt("query", err, true)
		return nil
	}
	b.rec.attempt("query", nil, false)
	b.rec.query(wall, res.Bytes)
	b.sample("steps", float64(res.TotalSteps))
	b.sample("messages", float64(res.Messages))
	b.sample("visits_per_site", visitsPerSite(res.Visits, coord))
	b.sample("cache_hits", float64(res.CacheHits))
	b.sample("cache_misses", float64(res.CacheMisses))
	if res.Boolean != nil {
		b.sample("solve_work", float64(res.Boolean.SolveWork))
	}
	if traced {
		for _, s := range res.Spans {
			if s.Parent == 0 {
				b.recordBreakdown(analyze(res.Spans, s.ID, string(coord)), wall)
				break
			}
		}
		b.keepTrace("query "+cq.src, wall, res.Spans)
	}
	return res
}

// soloLayerMetrics fills the per-layer metrics of a workload whose
// queries each run their own round, from execQuery's samples. cardF is
// the number of fragments.
func (b *bench) soloLayerMetrics(cardF int) {
	r := b.rec
	b.layerMetrics()
	b.layer["parbox.queries_per_round"] = 1
	b.layer["core.solve_work_per_query"] = mean(r.samples("solve_work"))
	b.layer["core.visits_per_site"] = mean(r.samples("visits_per_site"))
	b.layer["cluster.messages_per_query"] = mean(r.samples("messages"))
	b.layer["cluster.bytes_per_fragment"] = ratio(float64(r.queryBytes), float64(r.queries)*float64(cardF))
	b.layer["eval.steps_per_query"] = mean(r.samples("steps"))
	hits, misses := sum(r.samples("cache_hits")), sum(r.samples("cache_misses"))
	b.layer["core.cache_hit_ratio"] = ratio(hits, hits+misses)
}

// lanesPerRound sets the round metrics of solo rounds: each round runs one
// query's QList, so the lanes are the mean QList size over the operations
// run and nothing is shared.
func (b *bench) lanesPerRound(sizes []float64) {
	b.layer["parbox.lanes_per_round"] = mean(sizes)
	b.layer["parbox.lane_sharing"] = 1
}
