package main

// The system under test as the harness sees it from outside: a cmd/serve
// subprocess, its /proc accounting, and its /metrics exposition.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/obsv"
)

type daemon struct {
	cmd  *exec.Cmd
	base string // http://127.0.0.1:port
	log  *os.File
	// exited is closed once the process has been waited for.
	exited chan struct{}
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// serveArgs are the daemon flags a workload runs under; everything not
// listed stays at cmd/serve's default.
func (w workload) serveArgs(stateDir string) []string {
	args := []string{
		"-train", strconv.FormatFloat(w.Train, 'g', -1, 64),
		"-retrain", strconv.FormatFloat(w.Retrain, 'g', -1, 64),
		"-reorder", strconv.FormatInt(w.Reorder, 10),
	}
	if w.Fleet {
		args = append(args, "-fleet")
	}
	if w.Durable {
		args = append(args, "-state-dir", stateDir)
	}
	return args
}

// startDaemon execs bin and returns once GET /healthz answers 200; the
// returned duration is exec → first 200 (the recovery_s clock).
func startDaemon(bin string, args []string, logPath string) (*daemon, time.Duration, error) {
	port, err := freePort()
	if err != nil {
		return nil, 0, err
	}
	logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, 0, err
	}
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	cmd := exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	cmd.Stdout, cmd.Stderr = logf, logf
	// Should the harness die without cleaning up, the daemon goes with it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, 0, err
	}
	d := &daemon{cmd: cmd, base: "http://" + addr, log: logf, exited: make(chan struct{})}
	go func() { _ = cmd.Wait(); close(d.exited) }()
	client := &http.Client{Timeout: time.Second}
	deadline := t0.Add(60 * time.Second)
	for time.Now().Before(deadline) {
		select {
		case <-d.exited:
			logf.Close()
			return nil, 0, fmt.Errorf("daemon exited during startup (see %s)", logPath)
		default:
		}
		resp, err := client.Get(d.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, time.Since(t0), nil
			}
		}
		time.Sleep(time.Millisecond)
	}
	d.kill()
	return nil, 0, fmt.Errorf("daemon not healthy after 60s (see %s)", logPath)
}

// kill delivers SIGKILL — the crash the recovery tail is about — and
// waits for the process to be gone.
func (d *daemon) kill() {
	_ = d.cmd.Process.Signal(syscall.SIGKILL)
	<-d.exited
	d.log.Close()
}

func (d *daemon) pid() int { return d.cmd.Process.Pid }

// procCPU returns utime+stime of pid from /proc/<pid>/stat. The kernel
// reports clock ticks at USER_HZ, which is 100 on every Linux ABI.
func procCPU(pid int) (time.Duration, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	return parseProcStatCPU(string(raw))
}

func parseProcStatCPU(stat string) (time.Duration, error) {
	// The comm field may contain spaces and parentheses; fields are
	// counted from the last ')'.
	i := strings.LastIndexByte(stat, ')')
	if i < 0 {
		return 0, fmt.Errorf("malformed /proc stat line")
	}
	f := strings.Fields(stat[i+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat line")
	}
	// f[0] is field 3 (state); utime and stime are fields 14 and 15.
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad utime/stime in /proc stat line")
	}
	return time.Duration(ut+st) * (time.Second / 100), nil
}

// procPeakRSS returns VmHWM of pid in MB.
func procPeakRSS(pid int) (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	return parseVmHWM(string(raw))
}

func parseVmHWM(status string) (float64, error) {
	for _, line := range strings.Split(status, "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) != 2 || f[1] != "kB" {
				break
			}
			kb, err := strconv.ParseFloat(f[0], 64)
			if err != nil {
				break
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc status")
}

// hostCPU reads the aggregate cpu line of /proc/stat: total and stolen
// jiffies. Steal is time the hypervisor ran something else on our
// vCPUs; a run with a large share of it measured the host, not the code.
func hostCPU() (total, steal float64) {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	return parseHostCPU(string(raw))
}

func parseHostCPU(stat string) (total, steal float64) {
	line, _, _ := strings.Cut(stat, "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	for i, v := range f[1:] {
		n, err := strconv.ParseFloat(v, 64)
		if err != nil {
			return 0, 0
		}
		if i < 8 { // user nice system idle iowait irq softirq steal; guest time is already in user
			total += n
		}
		if i == 7 {
			steal = n
		}
	}
	return total, steal
}

func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// snapshot is one /metrics scrape with fleet tenants summed: a series is
// keyed by its name plus labels other than tenant, so stream_* counters
// read the same for one pipeline or sixteen.
type snapshot map[string]float64

func parseSnapshot(r io.Reader) (snapshot, error) {
	series, err := obsv.ParseText(r)
	if err != nil {
		return nil, err
	}
	out := make(snapshot, len(series))
	for k, v := range series {
		out[stripTenant(k)] += v
	}
	return out, nil
}

// stripTenant removes the tenant="..." label from a series key.
func stripTenant(key string) string {
	i := strings.Index(key, `tenant="`)
	if i < 0 {
		return key
	}
	j := strings.IndexByte(key[i+len(`tenant="`):], '"')
	if j < 0 {
		return key
	}
	end := i + len(`tenant="`) + j + 1
	rest := key[:i] + strings.TrimPrefix(key[end:], ",")
	rest = strings.Replace(rest, ",}", "}", 1)
	return strings.TrimSuffix(rest, "{}")
}

// scrape fetches /metrics and reports the body size.
func (d *daemon) scrape(client *http.Client) (snapshot, int, error) {
	resp, err := client.Get(d.base + "/metrics")
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, 0, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, 0, fmt.Errorf("GET /metrics: %s", resp.Status)
	}
	s, err := parseSnapshot(bytes.NewReader(raw))
	return s, len(raw), err
}

// queueDepth is the deepest stage queue in the snapshot. In fleet mode
// the per-tenant series are already summed, which over-reads; it is a
// bound, and the fleet workload's queues are near empty anyway.
func (s snapshot) queueDepth() float64 {
	deepest := 0.0
	for k, v := range s {
		if strings.HasPrefix(k, "stream_queue_depth{") && v > deepest {
			deepest = v
		}
	}
	return deepest
}

func (s snapshot) queuesEmpty() bool { return s.queueDepth() == 0 }

// postJSON issues a bodiless POST and decodes the JSON reply.
func postJSON(client *http.Client, url string, into any) error {
	resp, err := client.Post(url, "application/json", nil)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("POST %s: %s: %s", url, resp.Status, bytes.TrimSpace(raw))
	}
	if into == nil {
		return nil
	}
	return json.Unmarshal(raw, into)
}
