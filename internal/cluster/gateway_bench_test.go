package cluster

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/service"
)

// cachedSubmitBody is a predict the owner answers from its cache once it
// has run it.
const cachedSubmitBody = `{"type":"predict","predict":{"machine":"Yona","kind":"bulk","cores":12}}`

// startCachedSubmitCluster boots two nodes behind a gateway (its loops
// not started: no probes or stream readers share the host with the timed
// requests), submits cachedSubmitBody once through the gateway and waits
// for its result, and returns the gateway's URL and the owner's.
func startCachedSubmitCluster(b *testing.B) (gwURL, ownerURL string) {
	b.Helper()
	urls := map[string]string{}
	var members []Member
	for _, id := range []string{"n1", "n2"} {
		ts := httptest.NewServer(service.New(service.Config{NodeID: id}).Handler())
		b.Cleanup(ts.Close)
		urls[id] = ts.URL
		members = append(members, Member{ID: id, URL: ts.URL})
	}
	r := NewRouter(Config{Members: members})
	gw := httptest.NewServer(r.Handler())
	b.Cleanup(func() {
		gw.Close()
		r.Stop()
	})
	resp, err := testClient.Post(gw.URL+"/v1/jobs", "application/json", strings.NewReader(cachedSubmitBody))
	if err != nil {
		b.Fatal(err)
	}
	var v struct {
		ID string `json:"id"`
	}
	err = decodeAndClose(resp, &v)
	if err != nil || resp.StatusCode != http.StatusAccepted {
		b.Fatalf("first submit: status %d, err %v", resp.StatusCode, err)
	}
	owner, _, _ := strings.Cut(v.ID, "-job-")
	for {
		resp, err := testClient.Get(urls[owner] + "/v1/jobs/" + v.ID + "/result")
		if err != nil {
			b.Fatal(err)
		}
		_ = decodeAndClose(resp, nil)
		if resp.StatusCode == http.StatusOK {
			return gw.URL, urls[owner]
		}
		if resp.StatusCode != http.StatusAccepted {
			b.Fatalf("first job result: status %d", resp.StatusCode)
		}
	}
}

// decodeAndClose reads a response body whole, into v when v is non-nil.
func decodeAndClose(resp *http.Response, v any) error {
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil || v == nil {
		return err
	}
	return json.Unmarshal(data, v)
}

// benchCachedSubmit posts cachedSubmitBody to url once per op and expects
// the owner's cache-hit 200.
func benchCachedSubmit(b *testing.B, url string) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := testClient.Post(url+"/v1/jobs", "application/json", strings.NewReader(cachedSubmitBody))
		if err != nil {
			b.Fatal(err)
		}
		_ = decodeAndClose(resp, nil)
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("cached submit: status %d, want 200", resp.StatusCode)
		}
	}
}

// BenchmarkGatewayCachedSubmit times one cached POST /v1/jobs through the
// gateway: decode, ring lookup, the hop to the owner, the owner's cache
// hit, and the relay of its answer. BenchmarkDirectCachedSubmit is the
// same request sent to the owner itself; the difference is what the
// gateway adds to a request.
func BenchmarkGatewayCachedSubmit(b *testing.B) {
	gw, _ := startCachedSubmitCluster(b)
	benchCachedSubmit(b, gw)
}

func BenchmarkDirectCachedSubmit(b *testing.B) {
	_, owner := startCachedSubmitCluster(b)
	benchCachedSubmit(b, owner)
}
