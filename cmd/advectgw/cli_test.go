package main

import (
	"encoding/json"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
)

func TestParseMembers(t *testing.T) {
	ms, err := parseMembers(" n1=http://a:1 , n2=http://b:2/ ")
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 2 || ms[0].ID != "n1" || ms[1].URL != "http://b:2" {
		t.Fatalf("parsed %+v", ms)
	}
	for _, bad := range []string{"", "n1", "=http://a", "n1=", "n1=u,n1=v"} {
		if _, err := parseMembers(bad); err == nil {
			t.Errorf("parseMembers(%q) accepted", bad)
		}
	}
}

// logCapture collects the gateway's structured stderr log and surfaces the
// listen address from the msg=serving addr=<addr> event.
type logCapture struct {
	mu   sync.Mutex
	buf  strings.Builder
	addr chan string
	sent bool
}

func (lc *logCapture) Write(p []byte) (int, error) {
	lc.mu.Lock()
	defer lc.mu.Unlock()
	lc.buf.Write(p)
	if !lc.sent {
		s := lc.buf.String()
		if i := strings.Index(s, "addr="); i >= 0 {
			rest := s[i+len("addr="):]
			if j := strings.IndexAny(rest, " \n"); j >= 0 {
				lc.addr <- strings.Trim(rest[:j], `"`)
				lc.sent = true
			}
		}
	}
	return len(p), nil
}

func (lc *logCapture) String() string {
	lc.mu.Lock()
	defer lc.mu.Unlock()
	return lc.buf.String()
}

// TestAdvectgwCLI boots a 3-node local cluster behind the gateway binary,
// serves a job end to end through it, verifies the cluster surface, and
// stops it with SIGTERM.
func TestAdvectgwCLI(t *testing.T) {
	bin := buildBinary(t)
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-local", "3", "-health", "250ms")
	logs := &logCapture{addr: make(chan string, 1)}
	cmd.Stderr = logs
	var stdout strings.Builder
	cmd.Stdout = &stdout
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill()

	var addr string
	select {
	case addr = <-logs.addr:
	case <-time.After(30 * time.Second):
		t.Fatalf("gateway did not report its address; log:\n%s", logs.String())
	}
	base := "http://" + addr

	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d", resp.StatusCode)
	}

	// The cluster surface reports all three local members up.
	resp, err = http.Get(base + "/v1/cluster")
	if err != nil {
		t.Fatal(err)
	}
	var clusterDoc struct {
		Members []struct {
			ID    string `json:"id"`
			State string `json:"state"`
		} `json:"members"`
		Ring struct {
			Nodes []string `json:"nodes"`
		} `json:"ring"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&clusterDoc); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(clusterDoc.Members) != 3 || len(clusterDoc.Ring.Nodes) != 3 {
		t.Fatalf("cluster doc: %+v", clusterDoc)
	}
	for _, m := range clusterDoc.Members {
		if m.State != "up" {
			t.Errorf("member %s state %s, want up", m.ID, m.State)
		}
	}

	// One job end to end through the gateway, then a cache hit on resubmit.
	body := `{"type":"simulate","simulate":{"kind":"bulk","n":16,"steps":3,"tasks":2}}`
	resp, err = http.Post(base+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var view struct {
		ID    string `json:"id"`
		State string `json:"state"`
		Node  string `json:"node"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
		t.Fatalf("submit = %d", resp.StatusCode)
	}
	if !strings.HasPrefix(view.ID, view.Node+"-job-") {
		t.Fatalf("job id %q lacks node prefix (node %q)", view.ID, view.Node)
	}
	deadline := time.Now().Add(60 * time.Second)
	for {
		resp, err = http.Get(base + "/v1/jobs/" + view.ID)
		if err != nil {
			t.Fatal(err)
		}
		var poll struct {
			State string `json:"state"`
			Error string `json:"error"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&poll); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if poll.State == "done" {
			break
		}
		if poll.State == "failed" || poll.State == "cancelled" {
			t.Fatalf("job landed in %s: %s", poll.State, poll.Error)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %s", poll.State)
		}
		time.Sleep(20 * time.Millisecond)
	}
	resp, err = http.Post(base+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var hit struct {
		CacheHit bool `json:"cache_hit"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&hit); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !hit.CacheHit {
		t.Fatalf("resubmit = %d, cache_hit %v, want 200 hit", resp.StatusCode, hit.CacheHit)
	}

	// Federated stats name every node.
	resp, err = http.Get(base + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats struct {
		Nodes []struct {
			ID string `json:"id"`
		} `json:"nodes"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(stats.Nodes) != 3 {
		t.Fatalf("federated stats cover %d nodes, want 3", len(stats.Nodes))
	}

	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("gateway exited with %v; log:\n%s", err, logs.String())
		}
	case <-time.After(60 * time.Second):
		t.Fatalf("gateway did not exit after SIGTERM; log:\n%s", logs.String())
	}
	if !strings.Contains(stdout.String(), "stopped cleanly") {
		t.Errorf("stdout = %q, want the clean-stop message", stdout.String())
	}
}

// buildBinary compiles the gateway into a test directory.
func buildBinary(t *testing.T) string {
	t.Helper()
	if testing.Short() {
		t.Skip("builds a binary")
	}
	bin := filepath.Join(t.TempDir(), "advectgw")
	build := exec.Command("go", "build", "-o", bin, ".")
	build.Env = os.Environ()
	if out, err := build.CombinedOutput(); err != nil {
		t.Skipf("cannot build: %v\n%s", err, out)
	}
	return bin
}

// TestAdvectgwFlags is the settable-values ratchet of the gateway: a new flag
// is a visible edit to this list.
func TestAdvectgwFlags(t *testing.T) {
	out, err := exec.Command(buildBinary(t), "-h").CombinedOutput()
	if err != nil {
		t.Fatalf("-h: %v\n%s", err, out)
	}
	var got []string
	for _, line := range strings.Split(string(out), "\n") {
		if strings.HasPrefix(line, "  -") {
			got = append(got, strings.TrimPrefix(strings.Fields(line)[0], "-"))
		}
	}
	want := []string{"addr", "cache", "drain", "failures", "health", "local", "logjson",
		"loglevel", "nodes", "pprof", "queue", "retrywait", "sessions", "sessionsync", "workers"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("advectgw flags %v, want %v", got, want)
	}
}
