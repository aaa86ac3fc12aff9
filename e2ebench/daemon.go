package main

import (
	"errors"
	"fmt"
	"io/fs"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// daemon is one rerankd process, run at its default flags apart from
// deployment settings: addresses, and the data dir with its checkpoint
// interval.
type daemon struct {
	cmd    *exec.Cmd
	base   string
	exited chan error // receives the process's exit status once
	log    *os.File
}

// freePort asks the kernel for a port that was free a moment ago.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// startDaemon launches rerankd against upstream and returns once /healthz
// answers 200.
func startDaemon(bin, upstream, dataDir, logPath string) (*daemon, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	args := []string{"-upstream", upstream, "-addr", addr}
	if dataDir != "" {
		args = append(args, "-data-dir", dataDir, "-checkpoint-interval", checkpointInterval.String())
	}
	lf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = lf, lf
	cmd.Env = daemonEnv()
	// The daemon dies with the harness, whatever ends the harness.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		lf.Close()
		return nil, fmt.Errorf("start rerankd: %w", err)
	}
	d := &daemon{cmd: cmd, base: "http://" + addr, exited: make(chan error, 1), log: lf}
	go func() { d.exited <- cmd.Wait() }()
	hc := &http.Client{Timeout: time.Second}
	deadline := time.Now().Add(60 * time.Second)
	for {
		resp, err := hc.Get(d.base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				hc.CloseIdleConnections()
				return d, nil
			}
		}
		select {
		case err := <-d.exited:
			d.exited <- err
			d.kill()
			return nil, fmt.Errorf("rerankd exited during start-up (%v); log in %s", err, logPath)
		case <-time.After(2 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			d.kill()
			return nil, fmt.Errorf("rerankd not healthy after 60s; log in %s", logPath)
		}
	}
}

// daemonEnv is the harness's environment without the Go runtime settings
// that would move the daemon off its defaults.
func daemonEnv() []string {
	var env []string
	for _, kv := range os.Environ() {
		switch name, _, _ := strings.Cut(kv, "="); name {
		case "GOGC", "GOMAXPROCS", "GOMEMLIMIT", "GODEBUG":
		default:
			env = append(env, kv)
		}
	}
	return env
}

// stop drains the daemon with SIGTERM and waits for it to exit.
func (d *daemon) stop() error {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil && !errors.Is(err, os.ErrProcessDone) {
		d.kill()
		return err
	}
	select {
	case err := <-d.exited:
		d.exited <- err
		d.log.Close()
		if err != nil {
			return fmt.Errorf("rerankd drain: %w", err)
		}
		return nil
	case <-time.After(60 * time.Second):
		d.kill()
		return errors.New("rerankd did not drain within 60s")
	}
}

// kill ends the daemon at once and waits for it. Safe after stop.
func (d *daemon) kill() {
	_ = d.cmd.Process.Kill()
	err := <-d.exited
	d.exited <- err
	d.log.Close()
}

// cpuTime is the daemon's user+system CPU so far.
func (d *daemon) cpuTime() (time.Duration, error) { return procCPU(d.cmd.Process.Pid) }

// procCPU is a process's user+system CPU so far, from /proc/<pid>/stat.
func procCPU(pid int) (time.Duration, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line.
	s := string(raw)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+2:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat line %q", s)
	}
	var ticks int64
	for _, x := range f[11:13] {
		v, err := strconv.ParseInt(x, 10, 64)
		if err != nil {
			return 0, err
		}
		ticks += v
	}
	const userHZ = 100 // clock ticks per second on Linux
	return time.Duration(ticks) * time.Second / userHZ, nil
}

// runqWait sums the time the daemon's threads have spent runnable but
// waiting for a CPU (the second field of each thread's schedstat).
func (d *daemon) runqWait() (time.Duration, error) {
	dir := fmt.Sprintf("/proc/%d/task", d.cmd.Process.Pid)
	tasks, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var total time.Duration
	for _, t := range tasks {
		raw, err := os.ReadFile(filepath.Join(dir, t.Name(), "schedstat"))
		if err != nil {
			continue // the thread exited
		}
		f := strings.Fields(string(raw))
		if len(f) < 2 {
			return 0, fmt.Errorf("short schedstat %q", raw)
		}
		ns, err := strconv.ParseInt(f[1], 10, 64)
		if err != nil {
			return 0, err
		}
		total += time.Duration(ns)
	}
	return total, nil
}

// cpuTicks reads the machine-wide CPU tick counters of /proc/stat: the
// ticks stolen by the hypervisor and all ticks.
func cpuTicks() (steal, total int64, err error) {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, err
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0, fmt.Errorf("unexpected /proc/stat line %q", line)
	}
	for i, x := range f[1:] {
		v, err := strconv.ParseInt(x, 10, 64)
		if err != nil {
			return 0, 0, err
		}
		if i < 8 { // guest time is already counted in user time
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return steal, total, nil
}

// peakRSS is the daemon's VmHWM in bytes.
func (d *daemon) peakRSS() (int64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 10, 64)
			return kb << 10, err
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, e fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if e.Type().IsRegular() {
			info, err := e.Info()
			if err != nil {
				return err
			}
			n += info.Size()
		}
		return nil
	})
	return n, err
}

// stats is the part of GET /v1/stats the benchmark reads.
type stats struct {
	HistoryTuples        int    `json:"historyTuples"`
	ProbeCacheEntries    int    `json:"probeCacheEntries"`
	MDDenseRegions       int    `json:"mdDenseRegions"`
	SpecProbesIssued     int64  `json:"specProbesIssued"`
	SpecProbesWasted     int64  `json:"specProbesWasted"`
	StorageApproxBytes   int64  `json:"storageApproxBytes"`
	PersistCheckpoints   int64  `json:"persistCheckpoints"`
	PersistBytesAppended int64  `json:"persistBytesAppended"`
	PersistLastError     string `json:"persistLastError"`
	EpochBumps           int64  `json:"epochBumps"`
	RevalPromoted        int64  `json:"revalPromoted"`
	RevalEvicted         int64  `json:"revalEvicted"`
	ProbeRetries         int64  `json:"probeRetries"`
	ProbeFailures        int64  `json:"probeFailures"`
}
