package service

import (
	"encoding/base64"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/obs"
)

// The node boundary's contract for a job request's trace_id: a traced job
// keeps an id of the shape obs.NewTraceID mints, so its view and its
// /spans doc carry it; any other value is dropped — tracing is best-effort
// observability and never a reason to reject work.

// postTraceID submits a simulate job of the given steps carrying traceID.
func postTraceID(t *testing.T, ts *httptest.Server, steps int, traced bool, traceID string) (*http.Response, View) {
	t.Helper()
	body, err := json.Marshal(Request{Type: TypeSimulate, TraceID: traceID, Simulate: &SimulateRequest{
		Kind: "bulk", N: 16, Steps: steps, Tasks: 2, Trace: traced,
	}})
	if err != nil {
		t.Fatal(err)
	}
	return postJob(t, ts, string(body))
}

func TestTraceIDPropagates(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	id := obs.NewTraceID()
	resp, v := postTraceID(t, ts, 2, true, id)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("status %d, want 202", resp.StatusCode)
	}
	if v.TraceID != id {
		t.Fatalf("view trace_id %q, want the propagated %q", v.TraceID, id)
	}
	waitState(t, ts, v.ID, StateDone)

	// The spans doc carries the id and this node's own spans only.
	sresp, err := http.Get(ts.URL + "/v1/jobs/" + v.ID + "/spans")
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	if sresp.StatusCode != http.StatusOK {
		t.Fatalf("spans status %d", sresp.StatusCode)
	}
	var c obs.TraceContext
	if err := json.NewDecoder(sresp.Body).Decode(&c); err != nil {
		t.Fatal(err)
	}
	if c.TraceID != id {
		t.Errorf("spans trace_id %q, want %q", c.TraceID, id)
	}
	if len(c.Spans) == 0 {
		t.Fatal("spans doc holds no spans")
	}
	for _, s := range c.Spans {
		if s.Rank == obs.RankGateway || s.Node != "" {
			t.Fatalf("node span log holds a span it did not record: %+v", s)
		}
	}
}

func TestTraceIDMalformedIgnored(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})

	// None of these is an id obs.NewTraceID mints: the first five are
	// base64 payloads, whole or broken, of the kind a trace id never
	// carries.
	cases := map[string]struct {
		id     string
		traced bool
	}{
		"not base64":       {"!!!not-base64url!!!", true},
		"not json":         {"bm90LWpzb24", true}, // base64url("not-json")
		"missing trace_id": {encodeJSON(t, map[string]any{"epoch_ns": 1}), true},
		"missing epoch_ns": {encodeJSON(t, map[string]any{"trace_id": "abc"}), true},
		"oversized":        {obs.NewTraceID() + strings.Repeat("a", 96<<10), true},
		"short hex":        {"0123456789abcdef", true},
		"untraced job":     {obs.NewTraceID(), false},
	}
	steps := 1
	for name, c := range cases {
		// Distinct problems per case: an identical body would be served
		// from the result cache (200, no fresh admission) after the first.
		steps++
		t.Run(name, func(t *testing.T) {
			resp, v := postTraceID(t, ts, steps, c.traced, c.id)
			if resp.StatusCode != http.StatusAccepted {
				t.Fatalf("status %d, want 202 — a malformed trace_id must not reject the job", resp.StatusCode)
			}
			if v.TraceID != "" || v.Request.TraceID != "" {
				t.Errorf("view trace_id %q (request %q), want both empty", v.TraceID, v.Request.TraceID)
			}
			waitState(t, ts, v.ID, StateDone)
		})
	}
}

func TestTraceIDAbsentUnchanged(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	resp, v := postTraceID(t, ts, 2, true, "")
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("status %d, want 202", resp.StatusCode)
	}
	if v.TraceID != "" {
		t.Errorf("view trace_id %q, want empty without a trace_id", v.TraceID)
	}
	waitState(t, ts, v.ID, StateDone)
}

// encodeJSON renders a value as unpadded base64url JSON.
func encodeJSON(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return base64.RawURLEncoding.EncodeToString(b)
}
