package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/server"
)

// TestFlagErrors: malformed values, stray arguments and unknown flags
// are usage errors before anything listens.  lalrd has no self-test
// mode, so -smoke and its siblings are unknown flags.
func TestFlagErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-cache-size", "banana"},
		{"-log-format", "xml"},
		{"stray-arg"},
		{"-smoke"},
		{"-telemetry-smoke"},
		{"-frozen-smoke"},
		{"-cluster-smoke"},
	} {
		var out bytes.Buffer
		err := run(args, &out)
		if err == nil {
			t.Errorf("lalrd %s accepted", strings.Join(args, " "))
		}
		if out.Len() != 0 {
			t.Errorf("lalrd %s printed %q before failing", strings.Join(args, " "), out.String())
		}
	}
}

// startServe runs the real serve path with args plus a random loopback
// port, waits for the port file, and returns the base URL, the channel
// run's result arrives on, and run's output.
func startServe(t *testing.T, args ...string) (string, <-chan error, *bytes.Buffer) {
	t.Helper()
	portFile := filepath.Join(t.TempDir(), "port")
	out := new(bytes.Buffer)
	done := make(chan error, 1)
	args = append([]string{"-addr", "127.0.0.1:0", "-port-file", portFile}, args...)
	go func() { done <- run(args, out) }()

	deadline := time.Now().Add(5 * time.Second)
	for {
		if b, err := os.ReadFile(portFile); err == nil {
			return fmt.Sprintf("http://127.0.0.1:%s", strings.TrimSpace(string(b))), done, out
		}
		if time.Now().After(deadline) {
			t.Fatal("port file never appeared")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// stopServe delivers SIGTERM and expects a clean drain-and-exit.
func stopServe(t *testing.T, done <-chan error, out *bytes.Buffer) {
	t.Helper()
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("serve returned %v\n%s", err, out.String())
		}
	case <-time.After(10 * time.Second):
		t.Fatal("server did not shut down after SIGTERM")
	}
	if !strings.Contains(out.String(), "draining in-flight requests") {
		t.Errorf("shutdown did not report draining:\n%s", out.String())
	}
}

// TestServeGracefulShutdown boots the real serve path on a random
// port, confirms it answers, then delivers SIGTERM and expects a clean
// drain-and-exit.
func TestServeGracefulShutdown(t *testing.T) {
	base, done, out := startServe(t)
	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatalf("healthz: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status = %d", resp.StatusCode)
	}
	stopServe(t, done, out)
}

// TestServeHonorsCacheFlags: -cache-size and -max-inflight reach the
// server that serve boots, and a small cache still answers a repeat
// request from memory.
func TestServeHonorsCacheFlags(t *testing.T) {
	base, done, out := startServe(t, "-cache-size", "256KB", "-max-inflight", "8")
	req := `{"grammar": "%token A B\n%%\ns : A s B | A ;\n"}`
	for _, want := range []string{"miss", "hit"} {
		resp, err := http.Post(base+"/v1/analyze", "application/json", strings.NewReader(req))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Repro-Cache") != want {
			t.Fatalf("analyze = %d %q, want 200 %q", resp.StatusCode, resp.Header.Get("X-Repro-Cache"), want)
		}
	}
	resp, err := http.Get(base + "/metricz")
	if err != nil {
		t.Fatal(err)
	}
	var m server.MetriczResponse
	err = json.NewDecoder(resp.Body).Decode(&m)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if m.Cache.Capacity != 256<<10 || m.Admission.MaxInflight != 8 {
		t.Errorf("cache capacity %d, max-inflight %d; want %d, 8", m.Cache.Capacity, m.Admission.MaxInflight, 256<<10)
	}
	stopServe(t, done, out)
}
