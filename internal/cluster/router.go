package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/service"
	"repro/internal/telemetry"
)

// Config sizes the gateway. The zero value (plus a member list) selects
// the defaults.
type Config struct {
	// Members are the advectd nodes this gateway fronts. Each node should
	// run with Config.NodeID = Member.ID so job ids stay globally unique.
	Members []Member
	// HealthInterval is the health-check sweep cadence. Default 1s.
	HealthInterval time.Duration
	// FailThreshold is how many consecutive failed probes turn a node
	// down. Default 2.
	FailThreshold int
	// RetryWait is the largest Retry-After the gateway will honor by
	// briefly retrying the owner shard in place; a larger advertised wait
	// fails over to the next ring node instead. Default 1s.
	RetryWait time.Duration
	// SessionSyncInterval is the cadence of the checkpoint replication
	// sweep: how often the gateway pulls each live session's newest durable
	// checkpoint off its owner. It bounds how far back a session resumed
	// after its owner's death can land. Default 1s.
	SessionSyncInterval time.Duration
	// EnablePprof mounts net/http/pprof under /debug/pprof on the gateway
	// mux (the same switch advectd exposes via -pprof).
	EnablePprof bool
	// Logger receives structured routing events. Default: discard.
	Logger *slog.Logger
}

func (c Config) withDefaults() Config {
	if c.HealthInterval <= 0 {
		c.HealthInterval = time.Second
	}
	if c.FailThreshold < 1 {
		c.FailThreshold = 2
	}
	if c.RetryWait <= 0 {
		c.RetryWait = time.Second
	}
	if c.SessionSyncInterval <= 0 {
		c.SessionSyncInterval = time.Second
	}
	if c.Logger == nil {
		c.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	return c
}

// GatewayCounters are the gateway's cumulative routing statistics,
// reported by GET /v1/cluster and the federated stats document.
type GatewayCounters struct {
	// Submits counts client submissions accepted somewhere in the cluster.
	Submits uint64 `json:"submits"`
	// Failovers counts placements, jobs and sessions alike, that left the
	// owner shard for a ring successor (load shed, drain, or node failure).
	Failovers uint64 `json:"failovers"`
	// BriefRetries counts 429s absorbed by honoring a short Retry-After
	// on the owner instead of failing over.
	BriefRetries uint64 `json:"brief_retries"`
	// PeekHits is always 0: nothing increments it. It stays only because
	// bench/serve.go compiles against it and bench/ changes only with a
	// benchmark change; it leaves together with bench's
	// cluster.peek_hit_ratio metric.
	PeekHits uint64 `json:"peek_hits"`
	// Reroutes counts fingerprints re-submitted after a node death.
	Reroutes uint64 `json:"reroutes"`
	// Deduped counts dead-node jobs answered by aliasing them onto an
	// already in-flight (or just rerouted) job with the same fingerprint
	// instead of submitting again.
	Deduped uint64 `json:"deduped"`
	// Shed counts placements, jobs and sessions alike, that no routable
	// shard took.
	Shed uint64 `json:"shed"`
	// SessionRoutes counts sessions placed on a shard by fingerprint.
	SessionRoutes uint64 `json:"session_routes"`
	// SessionResumes counts dead-owner sessions re-created on a survivor
	// from a replicated checkpoint.
	SessionResumes uint64 `json:"session_resumes"`
	// CheckpointSyncs counts checkpoint replicas pulled off owners by the
	// session sync loop.
	CheckpointSyncs uint64 `json:"checkpoint_syncs"`
}

// entry is the gateway's record of one routed job or session: the shard
// that holds it, its routing fingerprint, its cluster-wide correlation id,
// and the encoded request (kept so the work can be re-submitted elsewhere
// if its node dies). When that happens the old entry forwards to its
// successor, so the id the client holds keeps answering. A session entry
// also carries the newest checkpoint the sync sweep has replicated off the
// owner — the bytes that seed the successor. id, node, fp, body and trace
// never change after the entry is tabled; the rest is guarded by Router.mu.
type entry struct {
	id       string // node-issued id (globally unique via the NodeID prefix)
	node     string
	fp       string
	body     []byte // encoded request; empty for a fork, which cannot be replayed
	terminal bool
	lost     string // non-empty: the node died and re-homing failed
	replaced *entry // forwarding pointer after a reroute or resume

	// trace carries the correlation id; only a traced job also records
	// gw.* spans. A dead-node resubmission continues the same trace.
	trace submissionTrace

	ckpt     []byte // a session's newest replicated checkpoint bytes
	ckptStep int64
}

// table holds one kind of routed entry, jobs or sessions, by the id the
// gateway handed the client: everything place needs to put the kind on a
// shard, and everything the proxied routes under /v1/<kind>/{id} need to
// find the current owner and to word an error. What the kinds do
// differently is data here, not a branch in place.
type table struct {
	noun    string // "job", "session"
	route   string // "/v1/jobs", "/v1/sessions": where a node takes and serves the kind
	entries map[string]*entry
	byFP    map[string]*entry // in-flight entry per fingerprint, the reroute's dedup; jobs only
	placed  *uint64           // the kind's placement counter in Router.counters
}

// Router is the cluster gateway: it owns the hash ring, the membership
// table, the gateway's job and session tables, and the federated telemetry
// hub. Construct with NewRouter, start the background loops with Start,
// expose via Handler, stop with Stop.
type Router struct {
	cfg     Config
	log     *slog.Logger
	client  *nodeClient
	members *Membership
	ring    atomic.Pointer[Ring]
	hub     *telemetry.Hub
	tele    *GatewayTelemetry
	mux     *http.ServeMux

	mu       sync.Mutex
	jobs     *table
	sessions *table
	counters GatewayCounters

	runCtx  context.Context
	stopRun context.CancelFunc
	wg      sync.WaitGroup
	started atomic.Bool
}

// NewRouter builds a gateway over the configured members. Call Start to
// begin health checking and stream federation.
func NewRouter(cfg Config) *Router {
	cfg = cfg.withDefaults()
	r := &Router{
		cfg:     cfg,
		log:     cfg.Logger,
		client:  newNodeClient(),
		members: NewMembership(cfg.Members, cfg.FailThreshold, time.Now()),
		hub:     telemetry.NewHub(),
		tele:    NewGatewayTelemetry(),
	}
	r.jobs = &table{noun: "job", route: "/v1/jobs", entries: map[string]*entry{},
		byFP: map[string]*entry{}, placed: &r.counters.Submits}
	r.sessions = &table{noun: "session", route: "/v1/sessions", entries: map[string]*entry{},
		placed: &r.counters.SessionRoutes}
	r.rebuildRing()
	r.mux = service.Mount(r.routes(), cfg.EnablePprof)
	return r
}

// Start launches the health-check loop and the per-node stream readers.
// The loops stop when ctx is cancelled or Stop is called.
func (r *Router) Start(ctx context.Context) {
	if r.started.Swap(true) {
		return
	}
	r.runCtx, r.stopRun = context.WithCancel(ctx)
	r.spawn(func() { r.every(r.cfg.HealthInterval, r.sweepHealth) })
	r.spawn(func() { r.every(r.cfg.SessionSyncInterval, r.syncSessions) })
	for _, m := range r.members.Snapshot() {
		r.spawn(func() { r.streamReader(r.runCtx, m.Member) })
	}
}

// spawn runs one background loop that Stop waits for.
func (r *Router) spawn(loop func()) {
	r.wg.Add(1)
	go func() {
		defer r.wg.Done()
		loop()
	}()
}

// every runs sweep at the given cadence until the gateway stops: the health
// sweep and the checkpoint replication sweep are both this loop.
func (r *Router) every(interval time.Duration, sweep func(context.Context)) {
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		select {
		case <-r.runCtx.Done():
			return
		case <-tick.C:
			sweep(r.runCtx)
		}
	}
}

// Stop halts the background loops, closes the federated hub, and closes
// the idle node connections, which a node's graceful shutdown would
// otherwise wait out.
func (r *Router) Stop() {
	if r.stopRun != nil {
		r.stopRun()
	}
	r.wg.Wait()
	r.hub.Close()
	r.client.hc.CloseIdleConnections()
}

// Handler returns the gateway HTTP API.
func (r *Router) Handler() http.Handler { return r.mux }

// Ring returns the current routing ring (an immutable snapshot).
func (r *Router) Ring() *Ring { return r.ring.Load() }

// Members returns the membership table.
func (r *Router) Members() *Membership { return r.members }

// Counters snapshots the gateway routing counters. The three fed on the
// line next to a telemetry window are that window's lifetime count.
func (r *Router) Counters() GatewayCounters {
	r.mu.Lock()
	c := r.counters
	r.mu.Unlock()
	c.BriefRetries, _ = r.tele.retries.Total()
	c.Reroutes, _ = r.tele.reroutes.Total()
	c.Shed, _ = r.tele.shed.Total()
	return c
}

// nodeFailed counts one failed request against a member, whoever made it —
// a routed submit, a proxied poll, a health probe. The report that crosses
// FailThreshold turns the member down and takes it off the ring; the health
// sweep re-homes what a down member still holds.
func (r *Router) nodeFailed(nodeID string, err error) {
	if r.members.ReportFailure(nodeID, err.Error(), time.Now()) {
		r.log.Warn("node down", "node", nodeID, "error", err)
		r.rebuildRing()
	}
}

// rebuildRing derives a fresh ring from the currently routable members and
// publishes it atomically; Lookup callers never see a partial update.
func (r *Router) rebuildRing() {
	r.ring.Store(NewRing(r.members.Routable(), DefaultVNodes))
}

// Errors the routing core reports to the HTTP layer.
var (
	// ErrNoNodes means no member is routable (all down or draining).
	ErrNoNodes = errors.New("cluster: no routable nodes")
	// errShed wraps a cluster-wide 429 and carries the longest
	// Retry-After any shard advertised.
	errShed = errors.New("cluster: every routable shard shed the submission")
)

// shedError is returned when every routable shard rejected the submission.
// It carries the nodes tried and the dispatch count so the answer tells the
// client exactly which shards turned the work away.
type shedError struct {
	RetryAfter time.Duration
	Nodes      []string
	Attempts   int
}

func (e *shedError) Error() string { return errShed.Error() }
func (e *shedError) Unwrap() error { return errShed }

// badRequest carries a node's 4xx answer straight back to the client.
type badRequest struct {
	resp *nodeResponse
}

func (e *badRequest) Error() string { return "cluster: node rejected request" }

// Submit routes one client submission through place. A traced request
// gets a trace id minted here and sent in its trace_id field: the gateway
// records its own routing spans and joins the owner's spans to them when the
// trace is read, so the job's Chrome trace starts at the gateway, not at the
// node.
func (r *Router) Submit(ctx context.Context, req service.Request) (service.View, string, error) {
	var tr submissionTrace
	if req.Traced() {
		tr = newSubmissionTrace()
		req.TraceID = tr.id
	}
	body, err := json.Marshal(req)
	if err != nil {
		return service.View{}, "", fmt.Errorf("encode request: %w", err)
	}
	e, resp, err := r.place(ctx, r.jobs, req.CacheKey(), body, tr)
	if err != nil {
		return service.View{}, "", err
	}
	var v service.View
	err = resp.expect("submit response", resp.status, &v)
	return v, e.node, err
}

// place is the one ring walk that puts work on a shard: client submits,
// session creates, dead-node reroutes and session resumes all make it.
// It POSTs body to the table's route on the fingerprint's owner, honors a
// brief Retry-After there in place, and fails over to the ring successor
// on a transport error, a shed, a 503 or a 5xx; any other 4xx stops the
// walk with the shard's answer as a *badRequest. Each dispatch attempt is
// one request: the owner's own cache answers a repeat. The accepted entry
// is tabled, with the submission's trace, and returned with the shard's
// answer. With a traced submission every routing decision lands as a gw.*
// span: the route lookup, each dispatch, each brief retry wait, and each
// failover.
func (r *Router) place(ctx context.Context, t *table, fp string, body []byte, tr submissionTrace) (*entry, *nodeResponse, error) {
	ring := r.ring.Load()
	n := len(ring.Nodes())
	if n == 0 {
		return nil, nil, ErrNoNodes
	}
	started := time.Now()
	var maxRetryAfter time.Duration
	var tried []string
	attempts := 0
	for attempt := 0; attempt < n; attempt++ {
		routeStart := tr.clock()
		nodeID := ring.LookupOffset(fp, attempt)
		if r.members.State(nodeID) != NodeUp {
			continue // the ring is swapped atomically but may trail by a beat
		}
		tried = append(tried, nodeID)
		tr.add(obs.PhaseGWRoute, nodeID, routeStart, tr.clock())
		url := r.members.URL(nodeID) + t.route
		retried := false
		dispatchFrom := tr.clock()
		for {
			attempts++
			// The gw.submit span ends at the dispatch; the network hop
			// itself is the gw.handoff span the joined trace adds.
			preSend := tr.clock()
			tr.add(obs.PhaseGWSubmit, nodeID, dispatchFrom, preSend)
			resp, err := r.client.do(ctx, http.MethodPost, url, body)
			var placed struct {
				ID    string        `json:"id"`
				State service.State `json:"state"`
			}
			if err == nil && (resp.status == http.StatusOK || resp.status == http.StatusAccepted) {
				err = resp.expect(t.noun, resp.status, &placed)
			}
			switch {
			case err != nil:
				if ctx.Err() != nil {
					return nil, nil, ctx.Err()
				}
				r.log.Warn("forward failed", traceArgs(tr, "kind", t.noun, "node", nodeID,
					"attempt", attempts, "error", err)...)
				r.nodeFailed(nodeID, err)
			case resp.status == http.StatusOK || resp.status == http.StatusAccepted:
				// A job cache hit arrives already done.
				e := &entry{id: placed.ID, node: nodeID, fp: fp, body: body, terminal: placed.State.Terminal(), trace: tr}
				r.mu.Lock()
				t.entries[e.id] = e
				if t.byFP != nil && !e.terminal {
					t.byFP[fp] = e
				}
				*t.placed++
				if attempt > 0 {
					r.counters.Failovers++
				}
				r.mu.Unlock()
				now := time.Now()
				r.tele.RecordRoute(now, nodeID, now.Sub(started), attempts)
				r.log.Info("routed", traceArgs(tr, "kind", t.noun, "node", nodeID, "attempt", attempts,
					"id", e.id, "fingerprint", fp, "failover", attempt > 0)...)
				return e, resp, nil
			case resp.status == http.StatusTooManyRequests:
				ra := resp.retryAfter()
				maxRetryAfter = max(maxRetryAfter, ra)
				// Honor a brief Retry-After in place: the owner keeps its
				// cache affinity and the wait is bounded; a longer wait
				// means the shard is genuinely backed up, so move on.
				if !retried && ra > 0 && ra <= r.cfg.RetryWait {
					retried = true
					waitStart := tr.clock()
					if !sleepCtx(ctx, ra) {
						return nil, nil, ctx.Err()
					}
					r.tele.RecordRetry(time.Now())
					dispatchFrom = tr.clock()
					tr.add(obs.PhaseGWRetry, nodeID, waitStart, dispatchFrom)
					continue
				}
				r.log.Info("shard shed, failing over", traceArgs(tr, "kind", t.noun, "node", nodeID,
					"attempt", attempts, "retry_after", ra)...)
			case resp.status == http.StatusServiceUnavailable:
				// A node that started draining between health sweeps says
				// so; adopt the state now so the ring reroutes its range. A
				// node without a session store answers 503 too, and is up.
				var doc service.ErrorDoc
				if json.Unmarshal(resp.body, &doc) == nil && doc.Error == service.ErrDraining.Error() &&
					r.members.ReportDraining(nodeID, time.Now()) {
					r.rebuildRing()
					r.log.Info("node draining (learned from 503)",
						traceArgs(tr, "node", nodeID, "attempt", attempts)...)
				}
			case resp.status >= 400 && resp.status < 500:
				return nil, nil, &badRequest{resp}
			default:
				r.log.Warn("unexpected status", traceArgs(tr, "kind", t.noun, "node", nodeID,
					"attempt", attempts, "status", resp.status)...)
			}
			tr.add(obs.PhaseGWFailover, nodeID, preSend, tr.clock())
			r.tele.RecordFailover(time.Now())
			break // next ring successor
		}
	}
	r.tele.RecordShed(time.Now())
	r.log.Warn("submission shed cluster-wide", traceArgs(tr, "kind", t.noun, "nodes", tried,
		"attempts", attempts, "retry_after", maxRetryAfter)...)
	return nil, nil, &shedError{RetryAfter: maxRetryAfter, Nodes: tried, Attempts: attempts}
}

// resolve follows an id through any forwarding chain to the entry that
// holds the work now, and reports why that entry was lost, if it was.
func (r *Router) resolve(t *table, id string) (e *entry, lost string, ok bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok = t.entries[id]
	if !ok {
		return nil, "", false
	}
	for e.replaced != nil {
		e = e.replaced
	}
	return e, e.lost, true
}

// finish marks an entry terminal once a proxied answer shows the work
// finished: the sync sweep stops replicating it, and a job releases its
// fingerprint from the in-flight dedup table.
func (r *Router) finish(e *entry) {
	r.mu.Lock()
	e.terminal = true
	if r.jobs.byFP[e.fp] == e {
		delete(r.jobs.byFP, e.fp)
	}
	r.mu.Unlock()
}

// unfinished selects the entries the gateway still tracks work for — not
// terminal (a lost entry is), not forwarded — on one node, or on every node
// when node is empty. For a node that just died these are its orphans.
func (r *Router) unfinished(t *table, node string) []*entry {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []*entry
	for _, e := range t.entries {
		if (node == "" || e.node == node) && !e.terminal && e.replaced == nil {
			out = append(out, e)
		}
	}
	return out
}

// live counts the entries of a table not yet observed terminal.
func (r *Router) live(t *table) int { return len(r.unfinished(t, "")) }

// lose records that a dead node's entries could not be re-homed; every
// proxied route answers for them from then on.
func (r *Router) lose(entries []*entry, why string) {
	r.mu.Lock()
	for _, e := range entries {
		e.lost = why
		e.terminal = true
	}
	r.mu.Unlock()
}

// sweepHealth probes each member once and applies the state transitions:
// up ↔ draining from the healthz body, down after FailThreshold
// consecutive failures (probe errors and failed forwards count alike). A
// member that fails its probe while down — whoever's report took it down —
// has whatever it still holds re-homed, which is idempotent: re-homed
// entries are no longer its. Any transition rebuilds the ring. Rebalancing is
// deliberately asynchronous to job execution — jobs on healthy shards
// never pause while membership changes. Probe verdicts apply CAS-style
// against the generation read before the probe, so a transition that
// raced the probe (an operator drain landing after the healthz read)
// is never overwritten by the probe's stale evidence.
func (r *Router) sweepHealth(ctx context.Context) {
	for _, m := range r.members.Snapshot() {
		gen := r.members.generation(m.ID)
		st, err := r.client.health(ctx, m.URL)
		if ctx.Err() != nil {
			return
		}
		now := time.Now()
		switch {
		case err != nil:
			r.nodeFailed(m.ID, err)
			if r.members.State(m.ID) == NodeDown {
				r.rerouteDead(ctx, m.ID)
				r.resumeDeadSessions(ctx, m.ID)
			}
		case st == NodeUp:
			if r.members.reportIf(m.ID, gen, NodeUp, now) {
				r.log.Info("node up", "node", m.ID)
				r.rebuildRing()
			}
		case st == NodeDraining:
			if r.members.reportIf(m.ID, gen, NodeDraining, now) {
				r.log.Info("node draining", "node", m.ID)
				r.rebuildRing()
			}
		}
	}
}

// rerouteDead re-homes the dead node's in-flight jobs. Jobs are grouped by
// fingerprint and each fingerprint is submitted at most once: if an
// equivalent job is already in flight on a live shard the dead jobs simply
// alias onto it, otherwise one re-submission goes through place. Accepted
// jobs are therefore never lost, and no fingerprint executes twice because
// of the reroute.
func (r *Router) rerouteDead(ctx context.Context, deadID string) {
	groups := map[string][]*entry{}
	for _, e := range r.unfinished(r.jobs, deadID) {
		groups[e.fp] = append(groups[e.fp], e)
	}
	r.mu.Lock()
	alive := map[string]*entry{}
	for fp := range groups {
		if cur, ok := r.jobs.byFP[fp]; ok && cur.node != deadID && !cur.terminal && cur.replaced == nil {
			alive[fp] = cur
		}
	}
	r.mu.Unlock()

	for fp, entries := range groups {
		if tgt, ok := alive[fp]; ok {
			r.mu.Lock()
			for _, e := range entries {
				e.replaced = tgt
			}
			r.counters.Deduped += uint64(len(entries))
			r.mu.Unlock()
			r.log.Info("dead jobs deduped onto in-flight twin",
				traceArgs(entries[0].trace, "node", deadID, "fingerprint", fp,
					"jobs", len(entries), "twin", tgt.id)...)
			continue
		}
		// A traced job continues its original trace: salvage whatever span
		// log the dying node can still serve (best-effort — a hung process
		// often answers reads long after it stops passing health checks),
		// then mark the resubmission decision before routing again.
		tr := entries[0].trace
		if tr.rec.Enabled() {
			start := tr.clock()
			if c, err := r.client.spans(ctx, r.members.URL(deadID), entries[0].id); err == nil {
				tr.harvest(deadID, c)
			}
			tr.add(obs.PhaseGWResubmit, deadID, start, tr.clock())
		}
		tgt, _, err := r.place(ctx, r.jobs, fp, entries[0].body, tr)
		if err != nil {
			r.lose(entries, fmt.Sprintf("node %s died and re-submit failed: %v", deadID, err))
			r.log.Error("reroute failed", traceArgs(tr, "node", deadID,
				"fingerprint", fp, "error", err)...)
			continue
		}
		r.mu.Lock()
		for _, e := range entries {
			e.replaced = tgt
		}
		r.counters.Deduped += uint64(len(entries) - 1)
		r.mu.Unlock()
		r.tele.RecordReroute(time.Now())
		r.log.Info("jobs rerouted", traceArgs(tr, "from", deadID, "to", tgt.node,
			"fingerprint", fp, "jobs", len(entries), "new_job", tgt.id)...)
	}
}

// AddMember joins a new node to the cluster at runtime: it enters the
// membership up, takes over its consistent-hash share of the key space
// (≈K/N keys move, all of them to the newcomer — see Ring), and gains a
// stream reader so its events join the federated stream. A re-homed key is
// recomputed once on the newcomer, the first time it is submitted there,
// and is a cache hit from then on.
func (r *Router) AddMember(mem Member) error {
	if mem.ID == "" || mem.URL == "" {
		return errors.New("cluster: member needs an id and a url")
	}
	if !r.members.Add(mem, time.Now()) {
		return fmt.Errorf("cluster: member %q already present", mem.ID)
	}
	r.rebuildRing()
	if r.started.Load() && r.runCtx != nil && r.runCtx.Err() == nil {
		r.spawn(func() { r.streamReader(r.runCtx, mem) })
	}
	r.log.Info("member added", "node", mem.ID, "url", mem.URL)
	return nil
}

// DrainNode asks a member to drain and adopts the draining state
// immediately, rebalancing its shard range to the remaining up members.
// In-flight jobs on the draining node finish there and stay pollable.
func (r *Router) DrainNode(ctx context.Context, id string) error {
	url := r.members.URL(id)
	if url == "" {
		return fmt.Errorf("cluster: unknown node %q", id)
	}
	if err := r.client.drain(ctx, url); err != nil {
		return err
	}
	if r.members.ReportDraining(id, time.Now()) {
		r.rebuildRing()
		r.log.Info("node draining (gateway initiated)", "node", id)
	}
	return nil
}

// traceArgs appends the submission's correlation id to a routing log
// line's attributes when it has one (a traced job, every session), so
// gateway log records correlate with the trace they belong to.
func traceArgs(tr submissionTrace, args ...any) []any {
	if tr.id != "" {
		return append(args, "trace_id", tr.id)
	}
	return args
}

// sleepCtx sleeps for d or until ctx is cancelled; it reports whether the
// full wait elapsed.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}
