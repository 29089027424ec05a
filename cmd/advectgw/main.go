// Command advectgw is the cluster gateway: it fronts N advectd nodes,
// shards submissions across them by request fingerprint with rendezvous
// (highest-random-weight) hashing, and presents the whole cluster behind
// the same HTTP surface a single node serves.
//
// Point it at running nodes (start each advectd with -node so job ids are
// globally unique):
//
//	advectd -addr :8081 -node n1 &
//	advectd -addr :8082 -node n2 &
//	advectgw -addr :8070 -nodes n1=http://127.0.0.1:8081,n2=http://127.0.0.1:8082
//
// or let it spin an in-process development cluster:
//
//	advectgw -addr :8070 -local 3
//
// Clients talk to the gateway exactly as they would to one advectd —
// POST /v1/jobs, poll /v1/jobs/{id}, fetch the result — and additionally
// get the cluster surface: GET /v1/cluster (the gateway's own state:
// membership, routable nodes, routing counters and windows), federated
// GET /v1/stats (that state beside every node's snapshot as the node
// served it, a down node named with its error), federated GET /v1/stream
// (every node's SSE events as it sent them, each naming its node, plus a
// periodic "gateway" event carrying the gateway's state), POST /v1/nodes
// to join a node and POST /v1/nodes/{id}/drain to rebalance one away
// gracefully. The gateway
// exports its own observability on GET /metrics (routing counters, rolling
// route/retry/failover windows, process health; Prometheus text or
// ?format=json) and, with -pprof, net/http/pprof under /debug/pprof.
//
// Traced submissions (simulate jobs with "trace": true) get a trace id
// minted at the gateway and sent to the owner node in the request's
// trace_id field. GET /v1/jobs/{id}/trace joins the owner's spans to the
// gateway's routing spans into one Chrome trace spanning gateway routing,
// the cross-node handoff, and the per-rank runner phases — including any
// failover or dead-node resubmission the job lived through.
//
// Routing honors the nodes' backpressure contract: a 429 with a short
// Retry-After is absorbed by briefly retrying the owner shard (keeping its
// cache affinity), a long one fails over to the key's next node, a draining
// 503 reroutes immediately, and a dead node's in-flight jobs are
// re-submitted to the survivors exactly once per fingerprint.
//
// SIGINT/SIGTERM stop the gateway; with -local the embedded nodes drain
// their in-flight jobs before exit.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/service"
)

func main() {
	var (
		addr      = flag.String("addr", ":8070", "listen address")
		nodes     = flag.String("nodes", "", "comma-separated members as id=url (e.g. n1=http://10.0.0.1:8080,n2=http://10.0.0.2:8080)")
		local     = flag.Int("local", 0, "development mode: run N in-process advectd nodes instead of -nodes")
		workers   = flag.Int("workers", 2, "worker pool size per -local node")
		queue     = flag.Int("queue", 16, "admission queue capacity per -local node")
		cache     = flag.Int("cache", 256, "result cache entries per -local node")
		drain     = flag.Duration("drain", 30*time.Second, "graceful-shutdown drain deadline for -local nodes")
		health    = flag.Duration("health", time.Second, "health-check sweep interval")
		failures  = flag.Int("failures", 2, "consecutive failed probes before a node is down")
		retryWait = flag.Duration("retrywait", time.Second, "longest Retry-After honored by retrying the owner shard in place")
		pprofOn   = flag.Bool("pprof", false, "serve net/http/pprof under /debug/pprof")
		logJSON   = flag.Bool("logjson", false, "emit logs as JSON instead of logfmt text")
		logLevel  = flag.String("loglevel", "info", "minimum log level: debug, info, warn, or error")
		sessSync  = flag.Duration("sessionsync", time.Second, "session checkpoint replication sweep interval")
		sessions  = flag.String("sessions", "", "session checkpoint directory for -local nodes (one subdirectory per node; empty = sessions disabled locally)")
	)
	flag.Parse()

	logger, err := service.NewLogger(*logLevel, *logJSON)
	if err != nil {
		fmt.Fprintf(os.Stderr, "advectgw: %v\n", err)
		os.Exit(2)
	}

	var members []cluster.Member
	var locals []*localNode
	switch {
	case *local > 0 && *nodes != "":
		fmt.Fprintln(os.Stderr, "advectgw: -local and -nodes are mutually exclusive")
		os.Exit(2)
	case *local > 0:
		members, locals, err = startLocalNodes(*local, service.Config{
			Workers: *workers, QueueCap: *queue, CacheEntries: *cache,
			DrainTimeout: *drain,
		}, *sessions, logger)
		if err != nil {
			logger.Error("local cluster failed", "error", err)
			os.Exit(1)
		}
	case *nodes != "":
		members, err = parseMembers(*nodes)
		if err != nil {
			fmt.Fprintf(os.Stderr, "advectgw: %v\n", err)
			os.Exit(2)
		}
	default:
		fmt.Fprintln(os.Stderr, "advectgw: need -nodes or -local (see -help)")
		os.Exit(2)
	}

	router := cluster.NewRouter(cluster.Config{
		Members:        members,
		HealthInterval: *health,
		FailThreshold:  *failures,
		RetryWait:      *retryWait,
		EnablePprof:    *pprofOn,
		Logger:         logger,

		// Checkpoint replication cadence for routed sessions.
		SessionSyncInterval: *sessSync,
	})
	runCtx, stopRun := context.WithCancel(context.Background())
	router.Start(runCtx)

	grace := *drain + 5*time.Second
	if err := service.ServeUntilSignal(*addr, router.Handler(), logger, grace,
		"members", len(members), "local", *local > 0); err != nil {
		logger.Error("serve failed", "addr", *addr, "error", err)
		os.Exit(1)
	}
	stopRun()
	router.Stop()
	if len(locals) > 0 {
		logger.Info("draining local nodes", "nodes", len(locals), "deadline", *drain)
		var wg sync.WaitGroup
		for _, n := range locals {
			wg.Add(1)
			go func(n *localNode) {
				defer wg.Done()
				n.stop(grace, logger)
			}(n)
		}
		wg.Wait()
	}
	fmt.Println("advectgw: stopped cleanly")
}

// localNode is one embedded advectd instance in -local mode.
type localNode struct {
	id  string
	srv *service.Server
	hs  *http.Server
}

func (n *localNode) stop(grace time.Duration, logger *slog.Logger) {
	logger = logger.With("node", n.id)
	if err := n.srv.Shutdown(); err != nil {
		logger.Error("local node drain failed", "error", err)
	}
	service.StopHTTP(n.hs, grace, logger)
}

// startLocalNodes boots count in-process advectd nodes on loopback
// ephemeral ports, each with its own worker pool, queue, and cache —
// a one-command development cluster.
func startLocalNodes(count int, cfg service.Config, sessionDir string, logger *slog.Logger) ([]cluster.Member, []*localNode, error) {
	members := make([]cluster.Member, 0, count)
	locals := make([]*localNode, 0, count)
	for i := 1; i <= count; i++ {
		id := fmt.Sprintf("local-%d", i)
		nodeCfg := cfg
		nodeCfg.NodeID = id
		nodeCfg.Logger = logger.With("node", id)
		if sessionDir != "" {
			// Each local node gets its own store: checkpoints are addressed
			// by fingerprint, so sharing a directory would let two nodes
			// race on the same session's files.
			dir := filepath.Join(sessionDir, id)
			if err := os.MkdirAll(dir, 0o755); err != nil {
				return nil, nil, fmt.Errorf("session dir for %s: %w", id, err)
			}
			nodeCfg.SessionDir = dir
		}
		srv := service.New(nodeCfg)
		hs, bound, err := service.Listen("127.0.0.1:0", srv.Handler(), func(err error) {
			logger.Error("local node serve failed", "node", id, "error", err)
		})
		if err != nil {
			return nil, nil, fmt.Errorf("listen for %s: %w", id, err)
		}
		url := "http://" + bound.String()
		logger.Info("local node up", "node", id, "url", url)
		members = append(members, cluster.Member{ID: id, URL: url})
		locals = append(locals, &localNode{id: id, srv: srv, hs: hs})
	}
	return members, locals, nil
}

// parseMembers reads the -nodes flag: comma-separated id=url pairs.
func parseMembers(s string) ([]cluster.Member, error) {
	var out []cluster.Member
	seen := map[string]bool{}
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		id, url, ok := strings.Cut(part, "=")
		id, url = strings.TrimSpace(id), strings.TrimSpace(url)
		if !ok || id == "" || url == "" {
			return nil, fmt.Errorf("bad member %q (want id=url)", part)
		}
		if seen[id] {
			return nil, fmt.Errorf("duplicate member id %q", id)
		}
		seen[id] = true
		out = append(out, cluster.Member{ID: id, URL: strings.TrimRight(url, "/")})
	}
	if len(out) == 0 {
		return nil, errors.New("-nodes named no members")
	}
	return out, nil
}
