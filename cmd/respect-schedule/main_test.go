// Smoke tests for the cmd/ binaries: every command must compile and the
// two user-facing entry points (respect-schedule, respect-serve) must
// start, answer, and exit cleanly as real processes.
package main

import (
	"bufio"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

// cmdNames enumerates the command directories under cmd/ so the smoke
// build can never silently drift out of sync with the tree when a new
// binary is added.
func cmdNames(t *testing.T) []string {
	t.Helper()
	entries, err := os.ReadDir("..")
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		if e.IsDir() {
			names = append(names, e.Name())
		}
	}
	if len(names) == 0 {
		t.Fatal("no command directories found under cmd/")
	}
	return names
}

// buildBinaries compiles every cmd package into a shared temp dir once per
// test binary.
func buildBinaries(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	names := cmdNames(t)
	args := []string{"build", "-o", dir}
	for _, name := range names {
		args = append(args, "respect/cmd/"+name)
	}
	cmd := exec.Command("go", args...)
	cmd.Env = os.Environ()
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build cmd/...: %v\n%s", err, out)
	}
	for _, name := range names {
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			t.Fatalf("binary %s missing after build: %v", name, err)
		}
	}
	return dir
}

func TestScheduleListBackendsSmoke(t *testing.T) {
	dir := buildBinaries(t)
	out, err := exec.Command(filepath.Join(dir, "respect-schedule"), "-list-backends").CombinedOutput()
	if err != nil {
		t.Fatalf("respect-schedule -list-backends: %v\n%s", err, out)
	}
	for _, want := range []string{"backends:", "exact", "heur", "compiler", "models:", "ResNet152", "ptrnet kernels: "} {
		if !strings.Contains(string(out), want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

func TestScheduleSolveSmoke(t *testing.T) {
	dir := buildBinaries(t)
	out, err := exec.Command(filepath.Join(dir, "respect-schedule"),
		"-model", "MobileNet", "-stages", "4", "-backend", "heur", "-sim=false").CombinedOutput()
	if err != nil {
		t.Fatalf("respect-schedule solve: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "objective:") {
		t.Fatalf("no objective in output:\n%s", out)
	}
}

// TestLintListSmoke checks the analyzer driver binary is wired to the
// full pass catalogue: -list must print every registered pass.
func TestLintListSmoke(t *testing.T) {
	dir := buildBinaries(t)
	out, err := exec.Command(filepath.Join(dir, "respect-lint"), "-list").CombinedOutput()
	if err != nil {
		t.Fatalf("respect-lint -list: %v\n%s", err, out)
	}
	for _, pass := range []string{"atomicfield", "ctxloop", "metriconce", "nosleeptest", "poolpair"} {
		if !strings.Contains(string(out), pass) {
			t.Fatalf("respect-lint -list missing pass %q:\n%s", pass, out)
		}
	}
}

// TestServeBinaryStartupShutdown runs the real respect-serve process on an
// ephemeral port, waits for readiness, makes one request, and stops it
// with SIGTERM — the deployment lifecycle end to end.
func TestServeBinaryStartupShutdown(t *testing.T) {
	dir := buildBinaries(t)
	cmd := exec.Command(filepath.Join(dir, "respect-serve"), "-addr", "127.0.0.1:0", "-warm", "none")
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = cmd.Stdout
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill() //nolint:errcheck // belt and braces on failure paths

	// The "listening on" line announces the bound address; the kernel
	// line comes before it.
	lineCh := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			if strings.HasPrefix(sc.Text(), "listening on ") {
				lineCh <- sc.Text()
				break
			}
		}
		// Drain so the child never blocks on a full pipe.
		_, _ = io.Copy(io.Discard, stdout)
	}()
	var base string
	select {
	case line := <-lineCh:
		i := strings.Index(line, "http://")
		if i < 0 {
			t.Fatalf("unexpected listening line: %q", line)
		}
		base = strings.Fields(line[i:])[0]
	case <-time.After(30 * time.Second):
		t.Fatal("server never announced its address")
	}

	resp, err := http.Get(base + "/v1/backends")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "exact") {
		t.Fatalf("backends: %d %s", resp.StatusCode, body)
	}

	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("respect-serve exited non-zero after SIGTERM: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("respect-serve did not exit after SIGTERM")
	}
}
