package cluster

import (
	"bufio"
	"context"
	"net/http"
	"strings"
	"time"

	"repro/internal/telemetry"
)

// streamReader is one member's leg of the federated SSE stream: it holds a
// GET /v1/stream open against the node and republishes every event on the
// gateway hub as the node sent it, naming its node. The read runs
// concurrently with everything else the gateway does — a slow or silent
// node never stalls routing or the other nodes' events, the same
// non-blocking discipline as the per-node Hub itself. While the node is
// down the reader idles and retries, so a recovered node rejoins the
// stream by itself.
func (r *Router) streamReader(ctx context.Context, m Member) {
	backoff := 250 * time.Millisecond
	for {
		if ctx.Err() != nil {
			return
		}
		if r.members.State(m.ID) == NodeDown {
			if !sleepCtx(ctx, r.cfg.HealthInterval) {
				return
			}
			continue
		}
		err := r.readNodeStream(ctx, m)
		if ctx.Err() != nil {
			return
		}
		if err != nil {
			r.log.Debug("node stream interrupted", "node", m.ID, "error", err)
		}
		if !sleepCtx(ctx, backoff) {
			return
		}
	}
}

// readNodeStream holds one SSE connection open and pumps events until it
// breaks.
func (r *Router) readNodeStream(ctx context.Context, m Member) error {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, m.URL+"/v1/stream", nil)
	if err != nil {
		return err
	}
	resp, err := r.client.stream.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	var name string
	var data []byte
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			if name != "" && len(data) > 0 {
				r.hub.Publish(telemetry.Event{Name: name, Data: data})
			}
			name, data = "", nil
		case strings.HasPrefix(line, "event: "):
			name = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			data = append(data, []byte(strings.TrimPrefix(line, "data: "))...)
		}
	}
	return sc.Err()
}
