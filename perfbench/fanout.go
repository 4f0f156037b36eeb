package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/frag"
	"repro/internal/obs"
	"repro/internal/xmark"
	"repro/internal/xpath"
)

// fanoutFragMB is the size of each fragment of fanout-tcp's star in paper
// megabytes (250 nodes), so card(F) alone sets the traffic.
const fanoutFragMB = 0.1

// fanoutCopies is how many times each pool query occurs in one round.
const fanoutCopies = 2

// tcpDeployment is a forest served by numSites sites over loopback TCP
// (wire v2), each behind its own listener with the ParBoX handlers, and a
// coordinator engine at S0 that reads its own fragments in process.
type tcpDeployment struct {
	st      *frag.SourceTree
	coordTr *cluster.TCPTransport
	eng     *core.Engine
	siteTrs []*cluster.TCPTransport
	srvs    []*cluster.Server
}

func deployTCP(forest *frag.Forest, assign frag.Assignment) (*tcpDeployment, error) {
	st, err := frag.BuildSourceTree(forest, assign)
	if err != nil {
		return nil, err
	}
	d := &tcpDeployment{st: st}
	cost := cluster.DefaultCostModel()
	addrs := map[frag.SiteID]string{}
	var coordSite *cluster.Site
	for i := 0; i < numSites; i++ {
		id := siteName(i)
		site := cluster.NewSite(id)
		for _, fid := range st.FragmentsAt(id) {
			fr, ok := forest.Fragment(fid)
			if !ok {
				d.close()
				return nil, fmt.Errorf("forest lacks fragment %d", fid)
			}
			site.AddFragment(&frag.Fragment{ID: fr.ID, Parent: fr.Parent, Root: fr.Root.Clone()})
		}
		siteTr := cluster.NewTCPTransport(nil)
		siteTr.Local(site)
		d.siteTrs = append(d.siteTrs, siteTr)
		core.RegisterHandlers(site, siteTr, cost)
		srv, err := cluster.ServeWith(site, "127.0.0.1:0", cluster.ServeConfig{RequireV2: true})
		if err != nil {
			d.close()
			return nil, err
		}
		d.srvs = append(d.srvs, srv)
		addrs[id] = srv.Addr()
		if i == 0 {
			coordSite = site
		}
	}
	for _, tr := range d.siteTrs {
		tr.SetAddrs(addrs)
	}
	d.coordTr = cluster.NewTCPTransport(addrs)
	d.coordTr.Local(coordSite)
	d.eng = core.NewEngine(d.coordTr, siteName(0), st, cost)
	return d, nil
}

func (d *tcpDeployment) close() {
	if d.coordTr != nil {
		d.coordTr.Close()
	}
	for _, tr := range d.siteTrs {
		tr.Close()
	}
	for _, s := range d.srvs {
		s.Close()
	}
}

// spanTransport wraps the coordinator's transport for the traced run: each
// call, local or remote, becomes a "transport <kind>" span around the
// inner transport, so the rpc spans the transport records nest under it.
type spanTransport struct{ inner *cluster.TCPTransport }

func (t spanTransport) Call(ctx context.Context, from, to frag.SiteID, req cluster.Request) (cluster.Response, cluster.CallCost, error) {
	ctx, sp := obs.StartSpan(ctx, string(to), "transport "+req.Kind)
	resp, cost, err := t.inner.Call(ctx, from, to, req)
	sp.End()
	return resp, cost, err
}

func (t spanTransport) Go(ctx context.Context, from, to frag.SiteID, req cluster.Request) <-chan cluster.Reply {
	ctx, sp := obs.StartSpan(ctx, string(to), "transport "+req.Kind)
	in := t.inner.Go(ctx, from, to, req)
	if sp == nil {
		return in
	}
	out := make(chan cluster.Reply, 1)
	go func() {
		r := <-in
		sp.End()
		out <- r
	}()
	return out
}

// fanoutQuery is one pool query compiled for the engine.
type fanoutQuery struct {
	src  string
	prog *xpath.Program
	want bool
}

// runFanout is fanout-tcp: a star of card(F) small fragments over 4 sites
// serving wire v2 on loopback, driven through core.Engine. Each query
// visits every site once, ships card(F) triplets, runs the root
// fragment's bottomUp on the formula arena and solves at the coordinator.
func runFanout(b *bench) error {
	cardF := b.cfg.fanout
	nodesPerMB := 0
	if b.cfg.small {
		nodesPerMB = 400
	}
	spec := docSpec{parents: xmark.StarParents(cardF), mbs: xmark.EvenMBs(fanoutFragMB*float64(cardF), cardF), nodesPerMB: nodesPerMB}
	srcs := benchQueries()
	type deployment struct {
		tcp   *tcpDeployment
		progs []*xpath.Program
	}
	dep, err := setup(b, func() (deployment, error) {
		forest, assign, err := spec.build(b.cfg.seed)
		if err != nil {
			return deployment{}, err
		}
		tcp, err := deployTCP(forest, assign)
		if err != nil {
			return deployment{}, err
		}
		progs := make([]*xpath.Program, len(srcs))
		var prep time.Duration
		for i, src := range srcs {
			start := time.Now()
			if progs[i], err = xpath.CompileString(src); err != nil {
				tcp.close()
				return deployment{}, err
			}
			prep += time.Since(start)
		}
		b.layer["xpath.prepare_us"] = float64(prep.Microseconds()) / float64(len(srcs))
		for _, p := range progs { // warm-up: connections and one round each
			if _, err := tcp.eng.ParBoX(bg, p); err != nil {
				tcp.close()
				return deployment{}, err
			}
		}
		return deployment{tcp, progs}, nil
	}, func(d deployment) { d.tcp.close() })
	if err != nil {
		return err
	}
	defer dep.tcp.close()

	want, err := b.oracle(spec, srcs)
	if err != nil {
		return err
	}
	pool := make([]fanoutQuery, len(srcs))
	var sizes []float64
	for i := range srcs {
		pool[i] = fanoutQuery{srcs[i], dep.progs[i], want[i]}
		sizes = append(sizes, float64(dep.progs[i].QListSize()))
	}
	coord := dep.tcp.eng.Coordinator()
	tracedEng := core.NewEngine(spanTransport{dep.tcp.coordTr}, coord, dep.tcp.st, cluster.DefaultCostModel())

	query := func(fq fanoutQuery) {
		eng := dep.tcp.eng
		ctx := bg
		var col *obs.Collector
		var root obs.Span
		traced := b.traced
		if traced {
			eng = tracedEng
			col = obs.NewCollector()
			root = obs.Span{TraceID: obs.NewTraceID(), ID: obs.NewSpanID(), Site: string(coord), Name: "bench.query"}
			ctx = obs.WithTrace(ctx, obs.TraceContext{TraceID: root.TraceID, SpanID: root.ID, Collector: col})
		}
		start := time.Now()
		rep, err := eng.ParBoX(ctx, fq.prog)
		wall := time.Since(start)
		if err != nil {
			b.rec.attempt("query", err, false)
			return
		}
		if rep.Answer != fq.want {
			b.rec.attempt("query", answerErr(fq.src, rep.Answer, fq.want), true)
			return
		}
		if err := checkVisits(rep.Visits, dep.tcp.st, coord); err != nil {
			b.rec.attempt("query", err, true)
			return
		}
		b.rec.attempt("query", nil, false)
		b.rec.query(wall, rep.Bytes)
		b.sample("steps", float64(rep.TotalSteps))
		b.sample("messages", float64(rep.Messages))
		b.sample("solve_work", float64(rep.SolveWork))
		b.sample("visits_per_site", visitsPerSite(rep.Visits, coord))
		if traced {
			root.Start, root.Dur = start.UnixNano(), wall.Nanoseconds()
			spans := append(col.Spans(), root)
			b.recordBreakdown(analyze(spans, root.ID, string(coord)), wall)
			b.keepTrace("query "+fq.src, wall, spans)
		}
	}

	err = b.measure(func(r int) error {
		b.shuffledRound(r, len(pool), fanoutCopies, func(i int) { query(pool[i]) })
		return nil
	})
	if err != nil {
		return err
	}
	b.queryMetrics()
	b.e2e["heap_mb"] = heapMB()
	runtime.KeepAlive(dep)
	b.soloLayerMetrics(cardF)
	b.lanesPerRound(sizes)
	return nil
}
