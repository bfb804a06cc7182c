package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/router"
	"repro/internal/server"
)

// proc is one streamd child process.
type proc struct {
	name   string
	router bool // its /statsz is a router.Statsz
	cmd    *exec.Cmd
	// addr and statsz are parsed from the child's own stderr announcement,
	// so no port is ever chosen by the benchmark.
	addr   string
	statsz string

	mu     sync.Mutex
	stderr []byte
	ready  chan struct{} // closed once both addresses are known
	exited chan struct{} // closed when the stderr pipe hits EOF
}

var (
	servingRE = regexp.MustCompile(`\bon (127\.0\.0\.1:\d+)`)
	statszRE  = regexp.MustCompile(`http://(127\.0\.0\.1:\d+)/statsz`)
)

// procs tracks every live child and temp dir so that any exit path —
// normal return, error, SIGINT — reaps them.
type procs struct {
	mu   sync.Mutex
	live []*proc
	dirs []string
}

// startProc launches streamd with loopback port-0 listeners plus args and
// returns once the child has printed both of its addresses.
func (ps *procs) startProc(bin, name string, args ...string) (*proc, error) {
	args = append([]string{"-addr", "127.0.0.1:0", "-http", "127.0.0.1:0"}, args...)
	p := &proc{name: name, cmd: exec.Command(bin, args...), ready: make(chan struct{}), exited: make(chan struct{})}
	// A benchmark killed with SIGKILL cannot run its cleanup; the kernel
	// takes the children down with it.
	p.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	pipe, err := p.cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	ps.mu.Lock()
	err = p.cmd.Start()
	if err == nil {
		ps.live = append(ps.live, p)
	}
	ps.mu.Unlock()
	if err != nil {
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	go p.scanStderr(pipe)
	select {
	case <-p.ready:
		return p, nil
	case <-p.exited:
		return nil, fmt.Errorf("%s exited before serving:\n%s", name, p.log())
	case <-time.After(20 * time.Second):
		return nil, fmt.Errorf("%s did not announce its addresses within 20s:\n%s", name, p.log())
	}
}

func (p *proc) scanStderr(pipe io.Reader) {
	defer close(p.exited)
	sc := bufio.NewScanner(pipe)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		p.mu.Lock()
		p.stderr = append(append(p.stderr, line...), '\n')
		if m := statszRE.FindStringSubmatch(line); m != nil {
			p.statsz = m[1]
		} else if m := servingRE.FindStringSubmatch(line); m != nil && p.addr == "" {
			p.addr = m[1]
		}
		done := p.addr != "" && p.statsz != ""
		p.mu.Unlock()
		if done {
			select {
			case <-p.ready:
			default:
				close(p.ready)
			}
		}
	}
}

func (p *proc) log() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return string(p.stderr)
}

// tempDir makes a fresh directory under out, removed by stopAll.
func (ps *procs) tempDir(out, pattern string) (string, error) {
	dir, err := os.MkdirTemp(out, pattern)
	if err != nil {
		return "", err
	}
	ps.mu.Lock()
	ps.dirs = append(ps.dirs, dir)
	ps.mu.Unlock()
	return dir, nil
}

// stopAll kills and reaps every child and removes every temp dir. When
// keepLogs is set (a phase failed) each child's stderr is kept under out.
func (ps *procs) stopAll(out string, keepLogs bool) {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	for _, p := range ps.live {
		p.cmd.Process.Kill()
	}
	for _, p := range ps.live {
		<-p.exited // the pipe must be drained before Wait closes it
		p.cmd.Wait()
		if keepLogs {
			path := filepath.Join(out, fmt.Sprintf("%s-%d.stderr", p.name, p.cmd.Process.Pid))
			if err := os.WriteFile(path, []byte(p.log()), 0o644); err == nil {
				fmt.Fprintf(os.Stderr, "bench: kept %s\n", path)
			}
		}
	}
	ps.live = nil
	for _, d := range ps.dirs {
		os.RemoveAll(d)
	}
	ps.dirs = nil
}

// sut is one workload's system under test: a front end (a single streamd,
// or a router) and every process behind it.
type sut struct {
	front *proc
	all   []*proc
}

// waitReady polls the front end with {"kind":"ping"} until it answers.
func (s *sut) waitReady() error {
	deadline := time.Now().Add(20 * time.Second)
	for {
		err := ping(s.front.addr)
		if err == nil {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s not ready: %w\n%s", s.front.name, err, s.front.log())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// cpuTicks sums utime+stime over the SUT's processes.
func (s *sut) cpuTicks() (int64, error) {
	var total int64
	for _, p := range s.all {
		b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", p.cmd.Process.Pid))
		if err != nil {
			return 0, err
		}
		t, err := parseStatTicks(string(b))
		if err != nil {
			return 0, fmt.Errorf("%s: %w", p.name, err)
		}
		total += t
	}
	return total, nil
}

// peakRSSKB sums VmHWM over the SUT's processes.
func (s *sut) peakRSSKB() (int64, error) {
	var total int64
	for _, p := range s.all {
		b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
		if err != nil {
			return 0, err
		}
		kb, err := parseVmHWM(string(b))
		if err != nil {
			return 0, fmt.Errorf("%s: %w", p.name, err)
		}
		total += kb
	}
	return total, nil
}

// userHZ is the unit of /proc/<pid>/stat times: USER_HZ, 100 on every
// Linux ABI.
const userHZ = 100

// parseStatTicks extracts utime+stime (fields 14 and 15) from a
// /proc/<pid>/stat line. The command name (field 2) may itself contain
// spaces and parentheses, so fields are counted from the last ')'.
func parseStatTicks(stat string) (int64, error) {
	i := strings.LastIndexByte(stat, ')')
	if i < 0 {
		return 0, fmt.Errorf("stat line has no command field: %q", stat)
	}
	f := strings.Fields(stat[i+1:]) // f[0] is field 3 (state)
	if len(f) < 13 {
		return 0, fmt.Errorf("stat line has %d fields after the command, want ≥13", len(f))
	}
	utime, err := strconv.ParseInt(f[11], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("utime: %w", err)
	}
	stime, err := strconv.ParseInt(f[12], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("stime: %w", err)
	}
	return utime + stime, nil
}

// parseVmHWM extracts the peak resident set size in kB from
// /proc/<pid>/status.
func parseVmHWM(status string) (int64, error) {
	for _, line := range strings.Split(status, "\n") {
		rest, ok := strings.CutPrefix(line, "VmHWM:")
		if !ok {
			continue
		}
		f := strings.Fields(rest)
		if len(f) != 2 || f[1] != "kB" {
			return 0, fmt.Errorf("unexpected VmHWM line %q", line)
		}
		return strconv.ParseInt(f[0], 10, 64)
	}
	return 0, fmt.Errorf("no VmHWM line")
}

// statszSnap is the subset of /statsz the benchmark reports, summed or
// maxed over the SUT's processes; ingested and alerts are the front end's.
type statszSnap struct {
	ingested      uint64
	alerts        uint64
	queueMaxDepth int
	queueDropped  uint64
	subDropped    uint64
	ckptCount     uint64
	ckptLastBytes int
	ckptLastMS    float64
}

func getJSON(addr string, v any) error {
	resp, err := http.Get("http://" + addr + "/statsz")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	return json.NewDecoder(resp.Body).Decode(v)
}

// scrape reads /statsz from every process through the structs the daemon
// itself marshals, so the benchmark and production read one instrument.
func (s *sut) scrape() (statszSnap, error) {
	var snap statszSnap
	for _, p := range s.all {
		if p.router {
			var st router.Statsz
			if err := getJSON(p.statsz, &st); err != nil {
				return snap, fmt.Errorf("%s /statsz: %w", p.name, err)
			}
			snap.ingested, snap.alerts = st.Ingested, st.Alerts
			snap.subDropped += st.SubDropped
			snap.ckptCount = st.Checkpoints
			for _, w := range st.Workers {
				snap.queueDropped += w.SendQueue.Dropped
				snap.queueMaxDepth = max(snap.queueMaxDepth, w.SendQueue.HighWater)
			}
			continue
		}
		var st server.Statsz
		if err := getJSON(p.statsz, &st); err != nil {
			return snap, fmt.Errorf("%s /statsz: %w", p.name, err)
		}
		if p == s.front {
			snap.ingested, snap.alerts = st.Ingested, st.Alerts
		}
		snap.queueDropped += st.QueueDropped
		snap.subDropped += st.SubDropped
		for _, ep := range st.Epochs {
			snap.queueMaxDepth = max(snap.queueMaxDepth, ep.Queue.HighWater)
		}
		if ck := st.Checkpoint; ck != nil {
			snap.ckptCount += ck.Count
			snap.ckptLastBytes = ck.LastBytes
			snap.ckptLastMS = ck.LastDurationMS
		}
	}
	return snap, nil
}
