package main

import (
	"encoding/json"
	"fmt"
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

// logCapture collects the daemon's structured stderr log and surfaces the
// listen address from the msg=serving addr=<addr> event. Hooking it up as
// cmd.Stderr (instead of a pipe-reading goroutine) means cmd.Wait only
// returns once every log line — including the drain events written just
// before exit — has been captured.
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

// TestAdvectdCLI boots the daemon, serves one predict job end to end, and
// drains it with SIGTERM.
func TestAdvectdCLI(t *testing.T) {
	bin := buildBinary(t)
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-workers", "2", "-queue", "4", "-pprof")
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
		t.Fatal("daemon did not report its address")
	}
	base := "http://" + addr

	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatalf("healthz: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %v", resp.Status)
	}

	// -pprof mounts the profiling endpoints.
	resp, err = http.Get(base + "/debug/pprof/")
	if err != nil {
		t.Fatalf("pprof: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pprof index: %v", resp.Status)
	}

	body := `{"type":"predict","predict":{"machine":"Yona","kind":"hybrid-overlap","cores":96,"threads":6}}`
	resp, err = http.Post(base+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	var view struct {
		ID    string `json:"id"`
		State string `json:"state"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
		t.Fatalf("submit decode: %v", err)
	}
	resp.Body.Close()

	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err = http.Get(fmt.Sprintf("%s/v1/jobs/%s/result", base, view.ID))
		if err != nil {
			t.Fatalf("result: %v", err)
		}
		if resp.StatusCode == http.StatusOK {
			var res struct {
				GF float64 `json:"gf"`
			}
			if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
				t.Fatalf("result decode: %v", err)
			}
			resp.Body.Close()
			if res.GF <= 0 {
				t.Fatalf("predict returned gf %v", res.GF)
			}
			break
		}
		resp.Body.Close()
		if time.Now().After(deadline) {
			t.Fatal("job did not finish")
		}
		time.Sleep(20 * time.Millisecond)
	}

	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("daemon exited uncleanly: %v\n%s", err, logs.String())
		}
	case <-time.After(30 * time.Second):
		t.Fatal("daemon did not drain after SIGTERM")
	}
	if !strings.Contains(stdout.String(), "drained cleanly") {
		t.Fatalf("missing drain message in stdout: %q", stdout.String())
	}

	// The structured log stream carries the whole job lifecycle.
	out := logs.String()
	for _, want := range []string{
		`msg="job submitted"`, `msg="job started"`, `msg="job finished"`,
		"job=job-", "type=predict", `msg="drain started"`, `msg="drain finished"`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("structured logs missing %q:\n%s", want, out)
		}
	}
}

// buildBinary compiles the daemon into a test directory.
func buildBinary(t *testing.T) string {
	t.Helper()
	if testing.Short() {
		t.Skip("builds a binary")
	}
	bin := filepath.Join(t.TempDir(), "advectd")
	build := exec.Command("go", "build", "-o", bin, ".")
	build.Env = os.Environ()
	if out, err := build.CombinedOutput(); err != nil {
		t.Skipf("cannot build: %v\n%s", err, out)
	}
	return bin
}

// TestAdvectdFlags is the settable-values ratchet of the daemon: a new flag
// is a visible edit to this list.
func TestAdvectdFlags(t *testing.T) {
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
	want := []string{"addr", "cache", "drain", "drift", "logjson", "loglevel", "maxn",
		"maxsteps", "model", "node", "pprof", "queue", "sessions", "workers"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("advectd flags %v, want %v", got, want)
	}
}
