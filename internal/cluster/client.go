package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"repro/internal/obs"
	"repro/internal/service"
)

// nodeClient wraps the HTTP conversations the gateway has with a member
// node. Every method takes a context so cancellation (client disconnect,
// gateway shutdown) propagates into the outbound request — the cluster
// analog of the context threading the runners use to stay killable. Both
// clients share one transport the gateway owns, so Stop can close the
// connections it left idle instead of leaving a node's graceful shutdown
// to wait them out.
type nodeClient struct {
	hc     *http.Client // short requests (placements, proxies, stats, health)
	stream *http.Client // long-lived SSE reads; no overall timeout
}

// requestTimeout bounds each outbound node request (not streams).
const requestTimeout = 10 * time.Second

func newNodeClient() *nodeClient {
	t := http.DefaultTransport.(*http.Transport).Clone()
	return &nodeClient{hc: &http.Client{Transport: t}, stream: &http.Client{Transport: t}}
}

// nodeResponse is a node's whole answer to one request.
type nodeResponse struct {
	status int
	header http.Header
	body   []byte
}

// do is the one outbound request: every conversation but the SSE stream
// goes through it, under the request timeout. A non-empty body is sent as
// JSON.
func (c *nodeClient) do(ctx context.Context, method, url string, body []byte) (*nodeResponse, error) {
	ctx, cancel := context.WithTimeout(ctx, requestTimeout)
	defer cancel()
	var rd io.Reader
	if len(body) > 0 {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return nil, err
	}
	if len(body) > 0 {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	return &nodeResponse{status: resp.StatusCode, header: resp.Header, body: data}, nil
}

// expect checks that the node answered want and, with a non-nil v, decodes
// the JSON body into it; what names the conversation in the error.
func (r *nodeResponse) expect(what string, want int, v any) error {
	if r.status != want {
		return fmt.Errorf("%s: status %d", what, r.status)
	}
	if v == nil {
		return nil
	}
	if err := json.Unmarshal(r.body, v); err != nil {
		return fmt.Errorf("decode %s: %w", what, err)
	}
	return nil
}

// relay copies the node's answer to the client unchanged: status, content
// type, body, and the session checkpoint headers — the replication
// metadata a puller needs to seed a successor session.
func (r *nodeResponse) relay(w http.ResponseWriter) {
	for _, h := range []string{service.SessionStepHeader, service.SessionFPHeader} {
		if v := r.header.Get(h); v != "" {
			w.Header().Set(h, v)
		}
	}
	service.WriteRaw(w, r.status, r.header.Get("Content-Type"), r.body)
}

// retryAfter is the node's Retry-After in whole seconds; 0 if absent.
func (r *nodeResponse) retryAfter() time.Duration {
	secs, err := strconv.Atoi(r.header.Get("Retry-After"))
	if err != nil || secs < 0 {
		return 0
	}
	return time.Duration(secs) * time.Second
}

// spans fetches a job's raw span log from a node for the dead-node
// harvest. It waits 2 s, not requestTimeout: a node that stopped answering
// health checks should not stall the reroute sweep.
func (c *nodeClient) spans(ctx context.Context, baseURL, id string) (*obs.TraceContext, error) {
	ctx, cancel := context.WithTimeout(ctx, 2*time.Second)
	defer cancel()
	resp, err := c.do(ctx, http.MethodGet, baseURL+"/v1/jobs/"+id+"/spans", nil)
	if err != nil {
		return nil, err
	}
	var doc obs.TraceContext
	if err := resp.expect("spans", http.StatusOK, &doc); err != nil {
		return nil, err
	}
	return &doc, nil
}

// health probes a node: state is NodeUp or NodeDraining on a parseable
// answer; an error means the probe failed (connection refused, timeout,
// garbage) and counts toward the down threshold.
func (c *nodeClient) health(ctx context.Context, baseURL string) (NodeState, error) {
	resp, err := c.do(ctx, http.MethodGet, baseURL+"/healthz", nil)
	if err != nil {
		return "", err
	}
	var doc struct {
		Status string `json:"status"`
	}
	// A draining node answers 503 with the same document, so any status
	// is read.
	if err := resp.expect("healthz", resp.status, &doc); err != nil {
		return "", err
	}
	switch doc.Status {
	case "ok":
		return NodeUp, nil
	case "draining":
		return NodeDraining, nil
	}
	return "", fmt.Errorf("healthz status %q", doc.Status)
}

// drain asks a node to begin its graceful drain.
func (c *nodeClient) drain(ctx context.Context, baseURL string) error {
	resp, err := c.do(ctx, http.MethodPost, baseURL+"/v1/drain", nil)
	if err != nil {
		return err
	}
	return resp.expect("drain", http.StatusAccepted, nil)
}

// checkpoint pulls a session's newest durable checkpoint from its owner:
// the raw bytes plus the step it stands at (from the response header).
// (nil, 0, nil) means the session exists but has no durable checkpoint yet.
func (c *nodeClient) checkpoint(ctx context.Context, baseURL, id string) ([]byte, int64, error) {
	resp, err := c.do(ctx, http.MethodGet, baseURL+"/v1/sessions/"+id+"/checkpoint", nil)
	if err != nil || resp.status == http.StatusNotFound {
		return nil, 0, err
	}
	if err := resp.expect("checkpoint", http.StatusOK, nil); err != nil {
		return nil, 0, err
	}
	step, err := strconv.ParseInt(resp.header.Get(service.SessionStepHeader), 10, 64)
	if err != nil {
		return nil, 0, fmt.Errorf("checkpoint: bad %s header: %w", service.SessionStepHeader, err)
	}
	return resp.body, step, nil
}
