package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// bootTimeout bounds one server boot; a healthy boot takes well under a
// second.
const bootTimeout = 30 * time.Second

// children holds the process group of every live child, so an interrupt
// or a failing run can never leave one behind.
var children = struct {
	sync.Mutex
	pgids map[int]bool
}{pgids: map[int]bool{}}

func trackChild(pid int) {
	children.Lock()
	children.pgids[pid] = true
	children.Unlock()
}

// untrackChild reports whether pid was still tracked.
func untrackChild(pid int) bool {
	children.Lock()
	defer children.Unlock()
	was := children.pgids[pid]
	delete(children.pgids, pid)
	return was
}

// killAllChildren kills every process group still tracked. The exit
// paths of main and the signal handler call it.
func killAllChildren() {
	children.Lock()
	defer children.Unlock()
	for pgid := range children.pgids {
		_ = syscall.Kill(-pgid, syscall.SIGKILL) // ESRCH when it already exited
	}
}

// runChild runs cmd to completion in its own, tracked process group and
// returns its standard output; its standard error passes through.
func runChild(cmd *exec.Cmd) ([]byte, error) {
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	cmd.Stderr = os.Stderr
	var out bytes.Buffer
	cmd.Stdout = &out
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	trackChild(cmd.Process.Pid)
	err := cmd.Wait()
	untrackChild(cmd.Process.Pid)
	return out.Bytes(), err
}

// server is one respect-serve child process.
type server struct {
	url  string
	pid  int
	log  *tailBuffer
	done chan struct{} // closed when Wait returned
}

// tailBuffer keeps the end of a child's output for error reports.
type tailBuffer struct {
	sync.Mutex
	lines []string
}

func (t *tailBuffer) add(line string) {
	t.Lock()
	defer t.Unlock()
	t.lines = append(t.lines, line)
	if len(t.lines) > 20 {
		t.lines = t.lines[1:]
	}
}

func (t *tailBuffer) String() string {
	t.Lock()
	defer t.Unlock()
	return strings.Join(t.lines, "\n")
}

// goBuild compiles pkg (relative to dir) into outDir/name and returns
// the binary's path; the compiler's complaints go to standard error. A
// failed build fails the run before anything is timed.
func goBuild(dir, pkg, outDir, name string) (string, error) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return "", err
	}
	bin := filepath.Join(outDir, name)
	cmd := exec.Command("go", "build", "-o", bin, pkg)
	cmd.Dir = dir
	if _, err := runChild(cmd); err != nil {
		return "", fmt.Errorf("go build %s: %w", pkg, err)
	}
	return bin, nil
}

// startServer execs the binary in its own process group and returns once
// it printed its listen address. addr may name port 0.
func startServer(bin, addr string, args ...string) (*server, error) {
	cmd := exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	cmd.Stderr = cmd.Stdout
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	s := &server{pid: cmd.Process.Pid, log: &tailBuffer{}, done: make(chan struct{})}
	trackChild(s.pid)

	listening := make(chan string, 1)
	go func() {
		defer close(s.done)
		sc := bufio.NewScanner(stdout)
		sc.Buffer(make([]byte, 64<<10), 1<<20)
		for sc.Scan() {
			line := sc.Text()
			s.log.add(line)
			if rest, ok := strings.CutPrefix(line, "listening on "); ok {
				select {
				case listening <- strings.Fields(rest)[0]:
				default:
				}
			}
		}
		_, _ = io.Copy(io.Discard, stdout) // a line over the scanner's limit: keep draining
		_ = cmd.Wait()                     // the exit status of a killed child is not news
	}()
	select {
	case s.url = <-listening:
		return s, nil
	case <-s.done:
		s.stop()
		return nil, fmt.Errorf("%s exited before listening:\n%s", filepath.Base(bin), s.log)
	case <-time.After(bootTimeout):
		s.stop()
		return nil, fmt.Errorf("%s did not listen within %v:\n%s", filepath.Base(bin), bootTimeout, s.log)
	}
}

// stop kills the child's whole process group and waits until it is gone.
func (s *server) stop() {
	if untrackChild(s.pid) {
		_ = syscall.Kill(-s.pid, syscall.SIGKILL) // ESRCH when it already exited
	}
	<-s.done
}

// httpGetJSON decodes a GET response into v.
func httpGetJSON(client *http.Client, url string, v any) error {
	resp, err := client.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// classStats and serverStats mirror the parts of GET /v1/stats the
// benchmark reads.
type classStats struct {
	RejectedCapacity     uint64 `json:"rejected_capacity"`
	RejectedQueueTimeout uint64 `json:"rejected_queue_timeout"`
	CacheHits            uint64 `json:"cache_hits"`
	CacheMisses          uint64 `json:"cache_misses"`
	CacheEvictions       uint64 `json:"cache_evictions"`
}

type memberStats struct {
	URL   string `json:"url"`
	State string `json:"state"`
}

type serverStats struct {
	WarmedSchedules int64                 `json:"warmed_schedules"`
	Classes         map[string]classStats `json:"classes"`
	Cluster         *struct {
		Members                []memberStats `json:"members"`
		ForwardsRelayed        uint64        `json:"forwards_relayed"`
		ForwardErrors          uint64        `json:"forward_errors"`
		ForwardsLocalUnhealthy uint64        `json:"forwards_local_unhealthy"`
	} `json:"cluster"`
	RT *struct {
		Releases    uint64 `json:"releases"`
		Completions uint64 `json:"completions"`
		Misses      uint64 `json:"misses"`
	} `json:"rt"`
}

func (s *server) stats(client *http.Client) (serverStats, error) {
	var st serverStats
	err := httpGetJSON(client, s.url+"/v1/stats", &st)
	return st, err
}

// awaitReady polls until the server answers /healthz, its warm-up stored
// the expected number of schedules and, in a fleet, it sees every peer
// alive. That is the point from which it serves at full speed.
func (s *server) awaitReady(client *http.Client, warmed int64) error {
	deadline := time.Now().Add(bootTimeout)
	var last error
	for time.Now().Before(deadline) {
		select {
		case <-s.done:
			return fmt.Errorf("server exited while booting:\n%s", s.log)
		default:
		}
		if last = s.ready(client, warmed); last == nil {
			return nil
		}
		time.Sleep(2 * time.Millisecond)
	}
	return fmt.Errorf("server not ready within %v: %w", bootTimeout, last)
}

func (s *server) ready(client *http.Client, warmed int64) error {
	resp, err := client.Get(s.url + "/healthz")
	if err != nil {
		return err
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("/healthz: %s", resp.Status)
	}
	st, err := s.stats(client)
	if err != nil {
		return err
	}
	if st.WarmedSchedules < warmed {
		return fmt.Errorf("warmed_schedules %d, want at least %d", st.WarmedSchedules, warmed)
	}
	if st.Cluster != nil {
		for _, m := range st.Cluster.Members {
			if m.State != "alive" {
				return fmt.Errorf("peer %s is %s", m.URL, m.State)
			}
		}
	}
	return nil
}

// cpuSeconds reads the process's user+system CPU time from
// /proc/<pid>/stat. It covers every thread of the process and nothing of
// the load generator.
func cpuSeconds(pid int) (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may hold spaces; fields resume after
	// the closing parenthesis.
	i := strings.LastIndexByte(string(raw), ')')
	if i < 0 {
		return 0, errors.New("malformed /proc stat line")
	}
	fields := strings.Fields(string(raw[i+1:]))
	if len(fields) < 13 {
		return 0, errors.New("short /proc stat line")
	}
	utime, err1 := strconv.ParseUint(fields[11], 10, 64) // field 14
	stime, err2 := strconv.ParseUint(fields[12], 10, 64) // field 15
	if err1 != nil || err2 != nil {
		return 0, errors.New("unparsable /proc stat times")
	}
	return float64(utime+stime) / clockTicksPerSecond, nil
}

// clockTicksPerSecond is USER_HZ, which Linux fixes at 100 on every
// architecture Go supports.
const clockTicksPerSecond = 100

// peakRSSMB reads the process's resident-set high-water mark (VmHWM).
func peakRSSMB(pid int) (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM line in /proc status")
}

// portFree fails when something already listens on addr.
func portFree(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("fleet port %s is busy: %w", addr, err)
	}
	return ln.Close()
}
