package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"sync"
	"time"

	advect "repro"
	"repro/internal/cluster"
	"repro/internal/service"
)

// node is one in-process advectd behind a real loopback listener.
type node struct {
	srv    *service.Server
	http   *http.Server
	url    string
	served chan struct{} // closed when the accept loop has returned
}

func startNode(cfg service.Config) (*node, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	srv := service.New(cfg)
	n := &node{
		srv:    srv,
		http:   &http.Server{Handler: srv.Handler()},
		url:    "http://" + ln.Addr().String(),
		served: make(chan struct{}),
	}
	go func() {
		defer close(n.served)
		_ = n.http.Serve(ln) // returns ErrServerClosed on stop
	}()
	return n, nil
}

// shutdownHTTP stops an HTTP server whose requests have all been answered.
// A graceful Shutdown waits five seconds for any connection a client's
// transport dialled ahead and never used, so it gets a moment and then the
// remaining connections are closed.
func shutdownHTTP(ctx context.Context, srv *http.Server, served <-chan struct{}) {
	ctx, cancel := context.WithTimeout(ctx, 200*time.Millisecond)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		_ = srv.Close() // only unused connections are left
	}
	<-served
}

// stop closes the listener, drains the service and waits for both.
func (n *node) stop(ctx context.Context) {
	shutdownHTTP(ctx, n.http, n.served)
	_ = n.srv.Shutdown() // reports jobs cut short by the drain deadline; none are in flight here
}

// gateway is a cluster router in front of in-process nodes.
type gateway struct {
	router *cluster.Router
	http   *http.Server
	nodes  []*node
	url    string
	served chan struct{}
}

func startGateway(ctx context.Context, nodes int, cfg service.Config) (*gateway, error) {
	g := &gateway{served: make(chan struct{})}
	var members []cluster.Member
	for i := 1; i <= nodes; i++ {
		c := cfg
		c.NodeID = fmt.Sprintf("n%d", i)
		n, err := startNode(c)
		if err != nil {
			g.stopNodes(ctx)
			return nil, err
		}
		g.nodes = append(g.nodes, n)
		members = append(members, cluster.Member{ID: c.NodeID, URL: n.url})
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		g.stopNodes(ctx)
		return nil, err
	}
	g.router = cluster.NewRouter(cluster.Config{Members: members})
	g.router.Start(ctx)
	g.http = &http.Server{Handler: g.router.Handler()}
	g.url = "http://" + ln.Addr().String()
	go func() {
		defer close(g.served)
		_ = g.http.Serve(ln)
	}()
	return g, nil
}

func (g *gateway) stopNodes(ctx context.Context) {
	for _, n := range g.nodes {
		n.stop(ctx)
	}
}

func (g *gateway) stop(ctx context.Context) {
	shutdownHTTP(ctx, g.http, g.served)
	g.router.Stop()
	g.stopNodes(ctx)
}

// client is one keep-alive HTTP connection's worth of caller. A client that
// sends the traffic mix carries the generator of its blocks' order and the
// number of the request it sent last.
type client struct {
	hc   *http.Client
	base string
	mix  *rand.Rand
	seq  int
}

func newClient(base string) *client {
	return &client{base: base, hc: &http.Client{
		Timeout:   30 * time.Second,
		Transport: &http.Transport{MaxIdleConnsPerHost: 1},
	}}
}

// mixClients returns the two closed-loop clients of a traffic phase, each
// with its own seeded order of the mix.
func mixClients(seed uint64, base string) []*client {
	cls := make([]*client, 2)
	for i := range cls {
		cls[i] = newClient(base)
		cls[i].mix = newRNG(seed*7919 + uint64(i) + 1)
	}
	return cls
}

func closeAll(cls []*client) {
	for _, cl := range cls {
		cl.close()
	}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// do sends one request and reads the whole reply.
func (c *client) do(ctx context.Context, method, path string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// Traffic classes of the serving mix.
const (
	classCached = iota
	classUncached
	classSimulate
	classTraced
	numClasses
)

// classCount is the mix as one block of twenty requests: 35 % cached and
// 15 % uncached predicts, 40 % simulations, 10 % traced simulations. A client
// sends whole blocks, each in an order the seed shuffles, so every phase of
// every seed carries exactly these shares and a phase's throughput does not
// depend on how many slow requests a seed happened to draw.
var classCount = [numClasses]int{7, 3, 8, 2}

func nextBlock(r *rand.Rand) []int {
	var block []int
	for class, n := range classCount {
		for i := 0; i < n; i++ {
			block = append(block, class)
		}
	}
	r.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
	return block
}

// jobTimes are the timestamps of one finished job as the service reports
// them in its View.
type jobTimes struct{ queueWait, exec float64 }

// trafficStats is what one phase of closed-loop traffic measured.
type trafficStats struct {
	latency [numClasses][]float64 // seconds, POST sent → result body read
	jobs    []jobTimes            // simulate class
	spans   []float64             // spans per traced job
	shed    int
	rate    float64 // completed requests per second, summed over the clients
	ops     ops
}

func (t *trafficStats) merge(o *trafficStats) {
	for c := range t.latency {
		t.latency[c] = append(t.latency[c], o.latency[c]...)
	}
	t.jobs = append(t.jobs, o.jobs...)
	t.spans = append(t.spans, o.spans...)
	t.shed += o.shed
	t.ops.attempted += o.ops.attempted
	t.ops.failed += o.ops.failed
}

// toNominal converts what a segment measured between two readings of the
// yardstick into nominal-host seconds, given the factor the readings gave.
func (t *trafficStats) toNominal(factor float64) {
	for c := range t.latency {
		for i, sec := range t.latency[c] {
			t.latency[c][i] = sec * factor
		}
	}
	for i, j := range t.jobs {
		t.jobs[i] = jobTimes{j.queueWait * factor, j.exec * factor}
	}
	t.rate /= factor
}

func (t *trafficStats) completed() int {
	n := 0
	for _, l := range t.latency {
		n += len(l)
	}
	return n
}

// serveMix is the serve_mix workload: the request path of advectd under a
// fixed mix of cached look-ups and running simulations.
type serveMix struct {
	n, steps int
	// scheds are the schedules of the library lane: all the timed ones, or
	// bulk alone for a short pass inside another workload's traced run.
	scheds []schedule

	lane       *lane
	node       *node
	nu, cores  *counter // ν jitter; index of the next uncached predict
	cachedBody []byte
	cachedWant predictWant
}

// counter hands out distinct integers to concurrent clients: the j of each
// request's jittered ν and the core count of each uncached predict, so that
// no request repeats and the result cache never answers one by accident.
type counter struct {
	mu   sync.Mutex
	next int
}

func (s *counter) take() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.next++
	return s.next
}

// predictWant is the answer advect.Predict gives when called directly.
type predictWant struct{ stepSec, gf float64 }

func predictDirect(machine, kind string, cores, n int) (predictWant, error) {
	m, err := advect.MachineByName(machine)
	if err != nil {
		return predictWant{}, err
	}
	k, err := advect.ParseKind(kind)
	if err != nil {
		return predictWant{}, err
	}
	est, err := advect.Predict(advect.PredictConfig{M: m, Kind: k, Cores: cores, N: advect.NewProblem(n, 0).N})
	return predictWant{est.StepSec, est.GF}, err
}

func predictBody(machine, kind string, cores, n int) []byte {
	b, _ := json.Marshal(service.Request{Type: service.TypePredict, // a fixed struct always encodes
		Predict: &service.PredictRequest{Machine: machine, Kind: kind, Cores: cores, N: n}})
	return b
}

const (
	paperN                                 = 420
	cachedMachine, cachedKind, cachedCores = "Yona", "hybrid-overlap", 48
	uncachedMachine, uncachedKind          = "JaguarPF", "bulk"
)

func (w *serveMix) nodeConfig() service.Config {
	return service.Config{Workers: 2, QueueCap: 64}
}

func (w *serveMix) setup(c *runCtx) error {
	base := c.rng.Intn(400_000)
	w.nu = &counter{next: base}
	w.cores = &counter{next: c.rng.Intn(2000)}
	var err error
	if w.lane, err = newLane(c, w.n, w.steps, jitteredNu(base), true, w.scheds); err != nil {
		return err
	}
	want, err := predictDirect(cachedMachine, cachedKind, cachedCores, paperN)
	if err != nil {
		return err
	}
	w.cachedWant = want
	w.cachedBody = predictBody(cachedMachine, cachedKind, cachedCores, paperN)
	n, err := startNode(w.nodeConfig())
	if err != nil {
		return err
	}
	w.node = n
	return w.prime(c.ctx, n.url)
}

// prime puts the fixed predict body into the result cache, so that every
// timed predict_cached request is a hit.
func (w *serveMix) prime(ctx context.Context, base string) error {
	cl := newClient(base)
	defer cl.close()
	var st trafficStats
	w.cachedOp(ctx, cl, &st, false)
	if st.ops.failed > 0 {
		return fmt.Errorf("priming the result cache at %s failed", base)
	}
	return nil
}

func (w *serveMix) teardown() {
	if w.node != nil {
		w.node.stop(context.Background())
		w.node = nil
	}
}

func (w *serveMix) ladder() (n, steps int) { return w.n, w.steps }

// yardstick is the job-shaped problem, verified as the jobs are.
func (w *serveMix) yardstick() (n, steps int, verify bool, reads int) { return w.n, w.steps, true, 5 }

// submit posts a job and returns its first View.
func submit(ctx context.Context, cl *client, st *trafficStats, body []byte) (service.View, int, bool) {
	var v service.View
	status, data, err := cl.do(ctx, http.MethodPost, "/v1/jobs", body)
	switch {
	case err != nil:
		st.ops.fail("POST /v1/jobs: %v", err)
		return v, status, false
	case status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable:
		st.shed++
		st.ops.fail("POST /v1/jobs: shed with %d", status)
		return v, status, false
	case status != http.StatusOK && status != http.StatusAccepted:
		st.ops.fail("POST /v1/jobs: status %d: %s", status, data)
		return v, status, false
	}
	if err := json.Unmarshal(data, &v); err != nil {
		st.ops.fail("POST /v1/jobs: bad view: %v", err)
		return v, status, false
	}
	return v, status, true
}

// await polls a job every millisecond until it is terminal, then fetches its
// result document.
func await(ctx context.Context, cl *client, st *trafficStats, v service.View) (service.View, []byte, bool) {
	for !v.State.Terminal() {
		time.Sleep(time.Millisecond)
		status, data, err := cl.do(ctx, http.MethodGet, "/v1/jobs/"+v.ID, nil)
		if err != nil || status != http.StatusOK {
			st.ops.fail("GET /v1/jobs/%s: status %d: %v", v.ID, status, err)
			return v, nil, false
		}
		if err := json.Unmarshal(data, &v); err != nil {
			st.ops.fail("GET /v1/jobs/%s: bad view: %v", v.ID, err)
			return v, nil, false
		}
	}
	if v.State != service.StateDone {
		st.ops.fail("job %s ended %s: %s", v.ID, v.State, v.Error)
		return v, nil, false
	}
	status, doc, err := cl.do(ctx, http.MethodGet, "/v1/jobs/"+v.ID+"/result", nil)
	if err != nil || status != http.StatusOK {
		st.ops.fail("GET /v1/jobs/%s/result: status %d: %v", v.ID, status, err)
		return v, nil, false
	}
	return v, doc, true
}

func checkPredict(st *trafficStats, doc []byte, want predictWant) bool {
	var got service.PredictResult
	if err := json.Unmarshal(doc, &got); err != nil {
		st.ops.fail("predict document: %v", err)
		return false
	}
	if got.StepSec != want.stepSec || got.GF != want.gf {
		st.ops.fail("predict document %v/%v differs from advect.Predict %v/%v", got.StepSec, got.GF, want.stepSec, want.gf)
		return false
	}
	return true
}

// cachedOp is predict_cached: the one fixed body, answered from the cache.
func (w *serveMix) cachedOp(ctx context.Context, cl *client, st *trafficStats, wantHit bool) {
	st.ops.attempted++
	t0 := time.Now()
	v, status, ok := submit(ctx, cl, st, w.cachedBody)
	if !ok {
		return
	}
	if wantHit && (status != http.StatusOK || !v.CacheHit) {
		st.ops.fail("predict_cached: status %d cache_hit %v, want a hit", status, v.CacheHit)
		return
	}
	_, doc, ok := await(ctx, cl, st, v)
	lat := time.Since(t0).Seconds()
	if ok && checkPredict(st, doc, w.cachedWant) {
		st.latency[classCached] = append(st.latency[classCached], lat)
	}
}

// uncachedOp is predict_uncached: a (cores, grid) pair no earlier request
// used. Core counts stay at or below 420 = 35 nodes of 12, which the model
// can always decompose the grid over; the grid size makes the pair unique.
func (w *serveMix) uncachedOp(ctx context.Context, cl *client, st *trafficStats) {
	st.ops.attempted++
	idx := w.cores.take()
	cores, n := 12*(1+idx%35), paperN+idx/35
	want, err := predictDirect(uncachedMachine, uncachedKind, cores, n)
	if err != nil {
		st.ops.fail("advect.Predict(%d cores, %d^3): %v", cores, n, err)
		return
	}
	t0 := time.Now()
	v, _, ok := submit(ctx, cl, st, predictBody(uncachedMachine, uncachedKind, cores, n))
	if !ok {
		return
	}
	_, doc, ok := await(ctx, cl, st, v)
	lat := time.Since(t0).Seconds()
	if ok && checkPredict(st, doc, want) {
		st.latency[classUncached] = append(st.latency[classUncached], lat)
	}
}

// simulateOp is simulate (bulk, untraced) or simulate_traced (nonblocking
// with a span recorder, whose span log is then fetched).
func (w *serveMix) simulateOp(ctx context.Context, cl *client, st *trafficStats, kind string, traced bool) {
	st.ops.attempted++
	class := classSimulate
	if traced {
		class = classTraced
	}
	body, _ := json.Marshal(service.Request{Type: service.TypeSimulate, // a fixed struct always encodes
		Simulate: &service.SimulateRequest{Kind: kind, N: w.n, Steps: w.steps, Nu: jitteredNu(w.nu.take()),
			Tasks: 2, Verify: true, Trace: traced}})
	t0 := time.Now()
	v, _, ok := submit(ctx, cl, st, body)
	if !ok {
		return
	}
	v, doc, ok := await(ctx, cl, st, v)
	lat := time.Since(t0).Seconds()
	if !ok {
		return
	}
	var res service.SimulateResult
	if err := json.Unmarshal(doc, &res); err != nil {
		st.ops.fail("simulate document: %v", err)
		return
	}
	if math.Abs(res.L2-w.lane.refL2) > 1e-2*w.lane.refL2 || !(res.MassDrift <= 1e-9) {
		st.ops.fail("simulate document: l2 %g (reference %g), mass drift %g", res.L2, w.lane.refL2, res.MassDrift)
		return
	}
	if traced {
		status, data, err := cl.do(ctx, http.MethodGet, "/v1/jobs/"+v.ID+"/spans", nil)
		var tc struct {
			Spans []json.RawMessage `json:"spans"`
		}
		if err != nil || status != http.StatusOK || json.Unmarshal(data, &tc) != nil || len(tc.Spans) == 0 {
			st.ops.fail("GET /v1/jobs/%s/spans: status %d, %d spans: %v", v.ID, status, len(tc.Spans), err)
			return
		}
		st.spans = append(st.spans, float64(len(tc.Spans)))
	} else if v.Started != nil && v.Finished != nil {
		st.jobs = append(st.jobs, jobTimes{
			queueWait: v.Started.Sub(v.Submitted).Seconds(),
			exec:      v.Finished.Sub(*v.Started).Seconds(),
		})
	}
	st.latency[class] = append(st.latency[class], lat)
}

// traffic drives the clients closed-loop, each sending its next request when
// the previous one has completed, for the given number of whole blocks of its
// seeded mix; a client's throughput is counted over its own active time.
func (w *serveMix) traffic(c *runCtx, phase string, clients []*client, blocks int) *trafficStats {
	per := make([]*trafficStats, len(clients))
	id := c.tr.begin("bench.phase."+phase, 0, 0)
	var wg sync.WaitGroup
	for i, cl := range clients {
		per[i] = &trafficStats{}
		wg.Add(1)
		go func(i int, cl *client) {
			defer wg.Done()
			st := per[i]
			t0 := time.Now()
			for b := 0; b < blocks; b++ {
				for _, class := range nextBlock(cl.mix) {
					cl.seq++
					sid := c.tr.begin(phase+"."+className[class], id, cl.seq*len(clients)+i)
					switch class {
					case classCached:
						w.cachedOp(c.ctx, cl, st, true)
					case classUncached:
						w.uncachedOp(c.ctx, cl, st)
					case classSimulate:
						w.simulateOp(c.ctx, cl, st, "bulk", false)
					case classTraced:
						w.simulateOp(c.ctx, cl, st, "nonblocking", true)
					}
					c.tr.end(sid, 1)
				}
			}
			st.rate = float64(st.completed()) / time.Since(t0).Seconds()
		}(i, cl)
	}
	wg.Wait()
	total := &trafficStats{}
	for _, st := range per {
		total.merge(st)
		total.rate += st.rate
	}
	c.tr.end(id, float64(total.completed()))
	c.ops.attempted += total.ops.attempted
	c.ops.failed += total.ops.failed
	return total
}

var className = [numClasses]string{"predict_cached", "predict_uncached", "simulate", "simulate_traced"}

// A round's traffic is segmentBlocks blocks of twenty requests from each
// client, so that a run has answered the same requests by the end of its
// n-th round whatever the host's speed; a run has minRounds at least, and
// its resident set is taken over those.
const (
	segmentBlocks  = 3
	serveMinRounds = 8
)

func (w *serveMix) measure(c *runCtx) {
	// Warm both paths: every schedule once through the library, then
	// connections, handler code and the worker pool.
	w.lane.warm()
	warm := mixClients(c.seed+1, w.node.url)
	w.traffic(c.scratch(), "warmup", warm, 1)
	closeAll(warm)

	gwShare := 0.0
	if c.trace {
		gwShare = 0.3
	}
	// Rounds until the budget is spent, so that the library lane and the
	// traffic both sample the whole run: the job-shaped problem through the
	// library, schedule by schedule (a quarter of a round, readings of the
	// yardstick included), then a segment of traffic between two readings.
	clients := mixClients(c.seed, w.node.url)
	defer closeAll(clients)
	direct, rough := &trafficStats{}, &trafficStats{}
	var rates samples
	for r, deadline := 1, c.deadline(1-gwShare); ; r++ {
		t0 := time.Now()
		w.lane.round(c.y, r)
		seg := w.traffic(c, "direct", clients, segmentBlocks)
		factor, steady := c.y.nominal()
		seg.toNominal(factor)
		rates.add(seg.rate, steady)
		if steady {
			direct.merge(seg)
		} else {
			rough.merge(seg)
		}
		c.roundDone()
		if now := time.Now(); r >= serveMinRounds && now.Add(now.Sub(t0)/2).After(deadline) {
			break
		}
	}
	c.m.putSamples("rss_mb", c.rssOver(serveMinRounds))
	if len(rates.steady) < 3 { // as samples.all: the host left too few steady segments
		direct.merge(rough)
	}
	w.lane.report(c.m)
	if bulk := w.lane.wall["bulk"]; bulk != nil {
		c.m.putSamples("service.run_direct_ms_p50", scale(bulk.all(), 1e3))
	}
	c.m.putSamples("job_ms_p50", scale(direct.latency[classSimulate], 1e3))
	c.m.putSamples("jobs_per_s", rates.all())
	w.layerMetrics(c, direct)
	if c.trace {
		w.gatewayPhase(c, direct, c.deadline(gwShare))
		w.serviceProbes(c)
	}
}

// layerMetrics derives the service-layer numbers the direct phase carries.
func (w *serveMix) layerMetrics(c *runCtx, d *trafficStats) {
	m := c.m
	sim := scale(d.latency[classSimulate], 1e3)
	m.putSamples("service.cached_ms_p50", scale(d.latency[classCached], 1e3))
	m.putSamples("service.predict_uncached_ms_p50", scale(d.latency[classUncached], 1e3))
	m.putSamples("obs.traced_job_ms_p50", scale(d.latency[classTraced], 1e3))
	m.putSamples("obs.spans_per_job", d.spans)
	if len(sim) > 0 {
		m.put("service.job_ms_p90", percentile(sim, 90))
		m.put("service.job_ms_p99", percentile(sim, 99))
	}
	var wait, exec []float64
	for _, j := range d.jobs {
		wait = append(wait, j.queueWait*1e3)
		exec = append(exec, j.exec*1e3)
	}
	m.putSamples("service.queue_wait_ms_p50", wait)
	m.putSamples("service.exec_ms_p50", exec)
	if run, ok := m["service.run_direct_ms_p50"]; ok && len(exec) > 0 && run.Value > 0 {
		m.put("service.exec_over_run", median(exec)/run.Value)
	}
	if d.ops.attempted > 0 {
		m.put("service.shed_ratio", float64(d.shed)/float64(d.ops.attempted))
	}
	// The node's own account of its result cache.
	cl := newClient(w.node.url)
	defer cl.close()
	var snap service.Snapshot
	if status, data, err := cl.do(c.ctx, http.MethodGet, "/metrics?format=json", nil); err == nil &&
		status == http.StatusOK && json.Unmarshal(data, &snap) == nil && snap.Cache.Hits+snap.Cache.Misses > 0 {
		m.put("service.cache_hit_ratio", float64(snap.Cache.Hits)/float64(snap.Cache.Hits+snap.Cache.Misses))
	}
}

// gatewayPhase sends the same seeded mix through a cluster router fronting
// two single-worker nodes.
func (w *serveMix) gatewayPhase(c *runCtx, direct *trafficStats, deadline time.Time) {
	cfg := w.nodeConfig()
	cfg.Workers = 1
	gw, err := startGateway(c.ctx, 2, cfg)
	if err != nil {
		c.ops.attempted++
		c.ops.fail("gateway start: %v", err)
		return
	}
	defer gw.stop(c.ctx)
	if err := w.prime(c.ctx, gw.url); err != nil {
		c.ops.attempted++
		c.ops.fail("%v", err)
		return
	}
	clients := mixClients(c.seed, gw.url)
	defer closeAll(clients)
	st := &trafficStats{}
	var rates []float64
	for first := true; first || time.Now().Before(deadline); first = false {
		c.y.read()
		seg := w.traffic(c, "gateway", clients, segmentBlocks)
		factor, _ := c.y.nominal()
		seg.toNominal(factor)
		rates = append(rates, seg.rate)
		st.merge(seg)
	}
	st.rate = median(rates)
	m := c.m
	m.putSamples("cluster.gw_job_ms_p50", scale(st.latency[classSimulate], 1e3))
	m.putSamples("cluster.gw_cached_ms_p50", scale(st.latency[classCached], 1e3))
	m.put("cluster.gw_jobs_per_s", st.rate)
	if len(st.latency[classCached]) > 0 && len(direct.latency[classCached]) > 0 {
		m.put("cluster.hop_us_p50", (median(st.latency[classCached])-median(direct.latency[classCached]))*1e6)
	}
	cl := newClient(gw.url)
	defer cl.close()
	var doc struct {
		Gateway cluster.GatewayCounters `json:"gateway"`
	}
	if status, data, err := cl.do(c.ctx, http.MethodGet, "/v1/cluster", nil); err == nil &&
		status == http.StatusOK && json.Unmarshal(data, &doc) == nil && doc.Gateway.Submits > 0 {
		m.put("cluster.peek_hit_ratio", float64(doc.Gateway.PeekHits)/float64(doc.Gateway.Submits))
		m.put("cluster.failovers", float64(doc.Gateway.Failovers))
		if doc.Gateway.Failovers != 0 {
			c.ops.attempted++
			c.ops.fail("gateway failed over %d times with every node healthy", doc.Gateway.Failovers)
		}
	}
}

// serviceProbes times the pieces of the request path one at a time on the
// idle node: admission without HTTP, the HTTP round trip around it, and a
// traced job against the same job untraced.
func (w *serveMix) serviceProbes(c *runCtx) {
	m := c.m
	var req service.Request
	if err := json.Unmarshal(w.cachedBody, &req); err != nil {
		return
	}
	direct := timeOp(probeReps, c.sz.probeDur, func() {
		if _, err := w.node.srv.Submit(req); err != nil {
			c.ops.attempted++
			c.ops.fail("Server.Submit: %v", err)
		}
	})
	m.put("service.submit_direct_us", direct*1e6)
	cl := newClient(w.node.url)
	defer cl.close()
	post := timeOp(probeReps, c.sz.probeDur, func() {
		_, _, _ = cl.do(c.ctx, http.MethodPost, "/v1/jobs", w.cachedBody) // checked by every cachedOp of the phase
	})
	m.put("service.http_overhead_us", (post-direct)*1e6)

	var plain, traced trafficStats
	for i := 0; i < 12; i++ {
		w.simulateOp(c.ctx, cl, &plain, "nonblocking", false)
		w.simulateOp(c.ctx, cl, &traced, "nonblocking", true)
	}
	c.ops.attempted += plain.ops.attempted + traced.ops.attempted
	c.ops.failed += plain.ops.failed + traced.ops.failed
	if p, t := plain.latency[classSimulate], traced.latency[classTraced]; len(p) > 0 && len(t) > 0 {
		m.put("obs.trace_overhead_frac", median(t)/median(p)-1)
	}
}
