package main

import (
	"bufio"
	"context"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"goldeneye"
	"goldeneye/internal/server"
	"goldeneye/internal/server/client"
)

// TestMain lets the test binary double as the daemon: the smoke test
// re-executes itself with this sentinel set, so the child is a real
// goldeneyed process that can receive a real SIGTERM.
func TestMain(m *testing.M) {
	if os.Getenv("GOLDENEYED_SMOKE_CHILD") == "1" {
		main()
		return
	}
	os.Exit(m.Run())
}

// TestDaemonSmoke is the daemon's end-to-end smoke: start goldeneyed on a
// random port, submit a tiny campaign through the typed client, follow its
// SSE stream to a completed report, verify a resubmission hits the
// persistent cache, and check SIGTERM drains to a clean exit.
func TestDaemonSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns a daemon process")
	}
	cacheDir := t.TempDir()
	cmd := exec.Command(os.Args[0], "-addr", "127.0.0.1:0", "-cache-dir", cacheDir)
	cmd.Env = append(os.Environ(), "GOLDENEYED_SMOKE_CHILD=1")
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill()

	// The daemon announces its bound address on stdout.
	rd := bufio.NewReader(stdout)
	line, err := rd.ReadString('\n')
	if err != nil {
		t.Fatalf("read daemon banner: %v", err)
	}
	const marker = "listening on "
	i := strings.Index(line, marker)
	if i < 0 {
		t.Fatalf("unexpected banner %q", line)
	}
	base := strings.TrimSpace(line[i+len(marker):])
	go func() { // drain the rest so the daemon never blocks on stdout
		for {
			if _, err := rd.ReadString('\n'); err != nil {
				return
			}
		}
	}()

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	c := client.New(base)

	f, err := goldeneye.ParseFormat("fp16")
	if err != nil {
		t.Fatal(err)
	}
	spec := &server.JobSpec{
		Model:     "mlp",
		Samples:   16,
		EvalBatch: 8,
		Campaign: goldeneye.CampaignConfig{
			Format:     f,
			Injections: 4,
			Seed:       21,
			Layer:      1,
		},
	}

	var progressSeen bool
	rep, err := c.Run(ctx, spec, func(server.JobStatus) { progressSeen = true })
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if rep.Injections != 4 {
		t.Fatalf("report injections: got %d, want 4", rep.Injections)
	}
	if !progressSeen {
		t.Error("no progress events streamed")
	}

	// Identical resubmission: served from cache, terminal at submit time.
	st, err := c.Submit(ctx, spec)
	if err != nil {
		t.Fatalf("resubmit: %v", err)
	}
	if st.State != server.JobDone || !st.Cached {
		t.Errorf("resubmit status: %+v (want cached done)", st)
	}

	// SIGTERM: the daemon drains and exits cleanly, leaving the cache on
	// disk.
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	waited := make(chan error, 1)
	go func() { waited <- cmd.Wait() }()
	select {
	case err := <-waited:
		if err != nil {
			t.Fatalf("daemon exit: %v", err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("daemon did not exit after SIGTERM")
	}
	cells, err := filepath.Glob(filepath.Join(cacheDir, "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) == 0 {
		t.Error("drained daemon left no persisted cache cells")
	}
}
