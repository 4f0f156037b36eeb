package main

import (
	"errors"
	"fmt"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	parbox "repro"
	"repro/internal/obs"
	"repro/internal/xmark"
	"repro/internal/xmltree"
	"repro/internal/xpath"
)

const (
	// updatesPerRound is one round's updates, alternating between a
	// fragment holding virtual nodes and a leaf fragment.
	updatesPerRound = 8
	// readEvery is how many updates pass between two read bursts; a read
	// burst asks every subscribed query readCopies times, so that a run
	// holds enough reads for its p99 not to rest on the few that overlap a
	// background checkpoint.
	readEvery  = 2
	readCopies = 4
	// notifyTimeout bounds the wait for a flip's notifications.
	notifyTimeout = 10 * time.Second
	// restoreReps is how many Close/Restore cycles end the run.
	restoreReps = 3
)

// flipEvent is one Flipped notification as a subscriber received it.
type flipEvent struct {
	query  int
	answer bool
	at     time.Time
}

// subscriber drains one standing subscription, forwarding its flips.
type subscriber struct {
	query int
	sub   *parbox.Subscription
	flips atomic.Int64
}

// updDeployment is one durable deployment of update-subscribe.
type updDeployment struct {
	dir    string
	sys    *parbox.System
	view   *parbox.View
	qs     []*parbox.Prepared
	subs   []*subscriber
	events chan flipEvent
	wg     sync.WaitGroup // the subscribers' drain goroutines
}

// close shuts the system down (cancelling every subscription) and waits
// for the drain goroutines.
func (d *updDeployment) close() error {
	err := d.sys.Close()
	d.wg.Wait()
	return err
}

// runUpdate is update-subscribe: a durable deployment with the triplet
// cache, hundreds of standing subscriptions over a handful of distinct
// queries, and a seeded stream of content updates on leaf fragments and
// fragments holding virtual nodes, with Boolean reads in between. The
// run ends with Close and Restore.
func runUpdate(b *bench) error {
	spec := docSpec{parents: xmark.FT3Parents(), mbs: xmark.FT3MBs(1)}
	if b.cfg.small {
		spec.nodesPerMB = 300
	}
	interior, leaf := fragmentClasses(spec.parents)
	srcs := make([]string, len(subQueries))
	for i, q := range subQueries {
		srcs[i] = q.src
	}
	opts := []parbox.Option{parbox.WithTripletCache(), parbox.WithIntrospection("127.0.0.1:0")}
	reps := 0
	dep, err := setup(b, func() (*updDeployment, error) {
		reps++
		d := &updDeployment{dir: filepath.Join(b.dir, fmt.Sprintf("data-%d", reps))}
		forest, assign, err := spec.build(b.cfg.seed)
		if err != nil {
			return nil, err
		}
		d.sys, err = parbox.Deploy(forest, assign, append([]parbox.Option{parbox.WithDurability(d.dir)}, opts...)...)
		if err != nil {
			return nil, err
		}
		if d.qs, err = b.prepareAll(srcs); err != nil {
			d.close()
			return nil, err
		}
		res, err := d.sys.Exec(bg, d.qs[0], parbox.WithMode(parbox.ModeMaterialize))
		if err != nil {
			d.close()
			return nil, err
		}
		d.view = res.View
		total := 0
		for _, q := range subQueries {
			total += q.subs
		}
		// Sized so that one flip's notifications never block a drain.
		d.events = make(chan flipEvent, total)
		for qi, q := range subQueries {
			for k := 0; k < q.subs; k++ {
				sub, err := d.sys.Subscribe(bg, d.qs[qi])
				if err != nil {
					d.close()
					return nil, err
				}
				s := &subscriber{query: qi, sub: sub}
				d.subs = append(d.subs, s)
				d.wg.Add(1)
				go s.drain(d.events, &d.wg)
			}
		}
		for _, q := range d.qs { // warm-up: one read of each query
			if _, err := d.sys.Exec(bg, q); err != nil {
				d.close()
				return nil, err
			}
		}
		return d, nil
	}, func(d *updDeployment) {
		d.close()
		os.RemoveAll(d.dir)
	})
	if err != nil {
		return err
	}
	defer func() {
		if dep != nil { // an error ended the run early
			dep.close()
		}
	}()

	mirror, roots, err := spec.mirror(b.cfg.seed)
	if err != nil {
		return err
	}
	oracle := newUpdateOracle(roots)
	if err := b.crossCheck(oracle, mirror, "start"); err != nil {
		return err
	}
	want := oracle.answers()
	if b.cfg.corruptOracle {
		want[0] = !want[0]
	}
	for _, s := range dep.subs { // the registration baselines
		b.rec.attempt("subscribe", checkAnswer(srcs[s.query], s.sub.Answer(), want[s.query]), true)
	}
	flips := make([]int64, len(subQueries)) // oracle flips per query
	sys := dep.sys

	read := func() {
		cur := oracle.answers()
		n := len(dep.qs)
		clients(readCopies*n, func(i int) {
			i %= n
			b.execQuery(sys, checkedQuery{src: srcs[i], q: dep.qs[i], want: cur[i]})
		})
	}
	update := func(k int, rng *rand.Rand) error {
		class, frags := "interior", interior
		if k%2 == 1 {
			class, frags = "leaf", leaf
		}
		before := oracle.answers()
		f, op, err := oracle.next(rng, frags)
		if err != nil {
			return err // the stream itself is broken: stop the run
		}
		after := oracle.answers()
		ctx := bg
		var col *obs.Collector
		traced := b.traced
		if traced {
			col = obs.NewCollector()
			ctx = obs.WithTrace(ctx, obs.TraceContext{TraceID: obs.NewTraceID(), SpanID: obs.NewSpanID(), Collector: col})
		}
		start := time.Now()
		mc, err := dep.view.Update(ctx, parbox.FragmentID(f), []parbox.UpdateOp{op})
		wall := time.Since(start)
		if err != nil {
			b.rec.attempt("update", err, false)
			return nil
		}
		if got := dep.view.Answer(); got != after[0] {
			b.rec.attempt("update", fmt.Errorf("view answer %v after the update, oracle says %v", got, after[0]), true)
			return nil
		}
		b.rec.attempt("update", nil, false)
		b.sample("update_ms", ms(wall))
		b.sample("update_bytes", float64(mc.Bytes))
		if traced {
			var apply int64
			for _, s := range col.Spans() {
				if s.Name == "handle views.applyUpdate" {
					apply += s.Dur
				}
			}
			b.sample("views.apply_ms", float64(apply)/1e6)
			b.sample("views.apply_"+class+"_ms", float64(apply)/1e6)
			b.keepTrace(fmt.Sprintf("update fragment %d (%s)", f, class), wall, col.Spans())
		}
		b.awaitFlips(dep, before, after, start, wall, flips)
		return nil
	}

	updates := 0
	var metricsBefore map[string]float64
	var tracedUpdates int
	metricsURL := "http://" + sys.IntrospectionAddr() + "/metrics"
	dirBefore, err := dirSize(dep.dir)
	if err != nil {
		return err
	}
	err = b.measure(func(r int) error {
		if b.traced && metricsBefore == nil {
			var err error
			if metricsBefore, err = scrapeCounters(metricsURL); err != nil {
				return err
			}
		}
		rng := rand.New(rand.NewSource(b.cfg.seed*1_000_003 + int64(r)))
		for k := 0; k < updatesPerRound; k++ {
			if err := update(k, rng); err != nil {
				return err
			}
			updates++
			if b.traced {
				tracedUpdates++
			}
			if (k+1)%readEvery == 0 {
				read()
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	if b.cfg.trace {
		after, err := scrapeCounters(metricsURL)
		if err != nil {
			return err
		}
		delta := func(name string) float64 { return after[name] - metricsBefore[name] }
		spine, full := delta("parbox_site_spine_recomputes_total"), delta("parbox_site_full_recomputes_total")
		b.layer["views.spine_share"] = ratio(spine, spine+full)
		b.layer["views.noop_share"] = ratio(delta("parbox_site_noop_updates_total"), spine+full)
		b.layer["views.deltas_per_update"] = ratio(delta("parbox_site_deltas_pushed_total"), float64(tracedUpdates))
	}
	dirAfter, err := dirSize(dep.dir)
	if err != nil {
		return err
	}
	b.layer["store.bytes_written_per_update"] = ratio(float64(dirAfter-dirBefore), float64(updates))

	// End of the stream: the oracle against the reference interpreter,
	// every subscriber's flips and answer, then the durable restart.
	if err := b.crossCheck(oracle, mirror, "end"); err != nil {
		return err
	}
	final := oracle.answers()
	for _, s := range dep.subs {
		var err error
		if got := s.sub.Answer(); got != final[s.query] {
			err = answerErr(srcs[s.query], got, final[s.query])
		} else if n := s.flips.Load(); n != flips[s.query] {
			err = fmt.Errorf("subscriber of %q heard %d flips, oracle flipped %d times", srcs[s.query], n, flips[s.query])
		}
		b.rec.attempt("subscribe", err, true)
	}
	counts := make([]int64, len(watches))
	for w, wt := range watches {
		counts[w] = countLabel(mirror, wt.parent, wt.child)
	}
	mirror, oracle = nil, nil
	b.queryMetrics()
	b.e2e["heap_mb"] = heapMB() // the measured deployment, still open
	sizes, dir := qlistSizes(dep.qs), dep.dir
	err = dep.close()
	dep, sys = nil, nil
	if err != nil {
		return fmt.Errorf("close: %w", err)
	}
	if err := b.restoreCycles(dir, opts, srcs, final, counts); err != nil {
		return err
	}

	r := b.rec
	upd := r.samples("untraced/update_ms")
	b.layer["update_p50_ms"] = median(upd)
	b.layer["update_p90_ms"] = quantile(upd, 0.9)
	b.layer["notify_p50_ms"] = median(r.samples("untraced/notify_ms"))
	b.layer["bytes_per_update"] = mean(r.samples("untraced/update_bytes"))
	b.layer["parbox.notify_dispatch_ms"] = median(r.samples("notify_dispatch_ms"))
	for _, name := range []string{"views.apply_ms", "views.apply_interior_ms", "views.apply_leaf_ms"} {
		b.layer[name] = median(r.samples(name))
	}
	b.soloLayerMetrics(len(spec.parents))
	b.lanesPerRound(sizes)
	return nil
}

// drain forwards the subscription's flips until it is cancelled.
func (s *subscriber) drain(events chan<- flipEvent, wg *sync.WaitGroup) {
	defer wg.Done()
	for {
		select {
		case n := <-s.sub.C():
			if n.Flipped {
				s.flips.Add(1)
				select {
				case events <- flipEvent{query: s.query, answer: n.Answer, at: time.Now()}:
				case <-s.sub.Done():
					return
				}
			}
		case <-s.sub.Done():
			return
		}
	}
}

// awaitFlips waits for the notifications of one update: every subscriber
// of a query whose oracle answer flipped must hear a Flipped notification
// with the new answer. Each flipped query is one "notify" operation.
func (b *bench) awaitFlips(dep *updDeployment, before, after []bool, start time.Time, call time.Duration, flips []int64) {
	pending := map[int]int{}
	for qi := range subQueries {
		if before[qi] != after[qi] {
			pending[qi] = subQueries[qi].subs
			flips[qi]++
		}
	}
	failed := map[int]error{}
	timeout := time.NewTimer(notifyTimeout)
	defer timeout.Stop()
	for len(pending) > 0 {
		select {
		case ev := <-dep.events:
			lat := ev.at.Sub(start)
			if _, ok := pending[ev.query]; !ok {
				b.rec.attempt("notify", fmt.Errorf("unexpected flip of %q", subQueries[ev.query].src), true)
				continue
			}
			if ev.answer != after[ev.query] {
				failed[ev.query] = answerErr(subQueries[ev.query].src, ev.answer, after[ev.query])
			}
			b.sample("notify_ms", ms(lat))
			b.sample("notify_dispatch_ms", ms(lat-call))
			if pending[ev.query]--; pending[ev.query] == 0 {
				delete(pending, ev.query)
				b.rec.attempt("notify", failed[ev.query], true)
			}
		case <-timeout.C:
			for qi, n := range pending {
				b.rec.attempt("notify", fmt.Errorf("%d subscribers of %q missed the flip", n, subQueries[qi].src), false)
			}
			return
		}
	}
}

// crossCheck compares the oracle's answers with the reference
// interpreter on the mirror.
func (b *bench) crossCheck(o *updateOracle, mirror *xmltree.Node, when string) error {
	want := o.answers()
	for i, q := range subQueries {
		e, err := xpath.Parse(q.src)
		if err != nil {
			return err
		}
		var cerr error
		if got := xpath.EvalRaw(e, mirror); got != want[i] {
			cerr = fmt.Errorf("at the %s, the reference interpreter says %v for %q, the oracle %v", when, got, q.src, want[i])
		}
		b.rec.attempt("oracle", cerr, true)
	}
	return nil
}

// restoreCycles restores the closed durable deployment restoreReps
// times. Each cycle times Restore plus the first answered query, then
// checks that every acknowledged update is readable: the subscribed
// queries answer as the oracle says and each watch's parent/child pair
// counts as many nodes as the mirror did (counts).
func (b *bench) restoreCycles(dir string, opts []parbox.Option, srcs []string, want []bool, counts []int64) error {
	var total, open []float64
	for i := 0; i < restoreReps; i++ {
		start := time.Now()
		sys, err := parbox.Restore(dir, opts...)
		if err != nil {
			return fmt.Errorf("restore: %w", err)
		}
		opened := time.Since(start)
		res, err := sys.Exec(bg, parbox.MustPrepare(srcs[0]))
		total = append(total, time.Since(start).Seconds())
		open = append(open, ms(opened))
		b.checkRestored(res, err, func() error { return checkAnswer(srcs[0], res.Answer, want[0]) })
		for qi := 1; qi < len(srcs); qi++ {
			res, err := sys.Exec(bg, parbox.MustPrepare(srcs[qi]))
			b.checkRestored(res, err, func() error { return checkAnswer(srcs[qi], res.Answer, want[qi]) })
		}
		for w, wt := range watches {
			src := "//" + wt.parent + "/" + wt.child
			res, err := sys.Exec(bg, parbox.MustPrepare(src), parbox.WithMode(parbox.ModeCount))
			b.checkRestored(res, err, func() error {
				if res.Matched != counts[w] {
					return fmt.Errorf("%s counts %d nodes after restore, the mirror %d", src, res.Matched, counts[w])
				}
				return nil
			})
		}
		if err := sys.Close(); err != nil {
			return fmt.Errorf("close restored system: %w", err)
		}
	}
	b.layer["restore_s"] = median(total)
	b.layer["store.restore_open_ms"] = median(open)
	return nil
}

// checkRestored records one read of the restored system: an error, or
// the verdict of check on its result.
func (b *bench) checkRestored(res *parbox.Result, err error, check func() error) {
	if err != nil {
		b.rec.attempt("restore", err, false)
		return
	}
	b.rec.attempt("restore", check(), true)
}

// fragmentClasses splits the fragments of a topology into those holding
// virtual nodes (they have sub-fragments) and leaves.
func fragmentClasses(parents []int) (interior, leaf []int) {
	hasKids := make([]bool, len(parents))
	for _, p := range parents {
		if p >= 0 {
			hasKids[p] = true
		}
	}
	for f, k := range hasKids {
		if k {
			interior = append(interior, f)
		} else {
			leaf = append(leaf, f)
		}
	}
	return interior, leaf
}

func qlistSizes(qs []*parbox.Prepared) []float64 {
	out := make([]float64, len(qs))
	for i, q := range qs {
		out[i] = float64(q.QListSize())
	}
	return out
}

func checkAnswer(src string, got, want bool) error {
	if got != want {
		return answerErr(src, got, want)
	}
	return nil
}

// dirSize is the total size of the regular files under dir.
func dirSize(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, e fs.DirEntry, err error) error {
		if err != nil {
			if errors.Is(err, fs.ErrNotExist) {
				return nil // a file the store rotated away mid-walk
			}
			return err
		}
		if e.Type().IsRegular() {
			info, err := e.Info()
			if err != nil {
				if errors.Is(err, fs.ErrNotExist) {
					return nil
				}
				return err
			}
			n += info.Size()
		}
		return nil
	})
	return n, err
}
