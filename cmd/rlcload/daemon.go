package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"rlckit/internal/serve"
)

// buildDaemon compiles cmd/rlckitd from the checkout at root into dir.
// The Go build cache, temp dir and module cache come from the
// environment (run.sh points them inside the checkout).
func buildDaemon(ctx context.Context, root, dir string) (string, error) {
	bin := filepath.Join(dir, "rlckitd")
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, "./cmd/rlckitd")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build ./cmd/rlckitd: %v\n%s", err, out)
	}
	return bin, nil
}

// daemon is one running rlckitd child process.
type daemon struct {
	cmd    *exec.Cmd
	base   string // http://host:port
	exited chan struct{}
}

var listenRe = regexp.MustCompile(`rlckitd .* listening on (\S+) `)

// ctlClient carries the health and counter reads, apart from the load
// connections.
var ctlClient = &http.Client{
	Transport: &http.Transport{Proxy: nil, DisableKeepAlives: true},
	Timeout:   10 * time.Second,
}

// logTail is the daemon's stderr: it reports the listener address from
// the startup line and keeps the last lines for error messages.
type logTail struct {
	mu    sync.Mutex
	buf   []byte
	lines []string
	addr  chan string
}

func (l *logTail) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.buf = append(l.buf, p...)
	for {
		i := bytes.IndexByte(l.buf, '\n')
		if i < 0 {
			return len(p), nil
		}
		line := string(l.buf[:i])
		l.buf = l.buf[i+1:]
		if m := listenRe.FindStringSubmatch(line); m != nil {
			select {
			case l.addr <- m[1]:
			default:
			}
		}
		l.lines = append(l.lines, line)
		if len(l.lines) > 20 {
			l.lines = l.lines[1:]
		}
	}
}

func (l *logTail) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return strings.Join(l.lines, "\n")
}

// startDaemon executes bin on a loopback port with the given extra
// flags and returns once /healthz answers 200. The returned duration
// runs from exec to that first 200, so it includes any store recovery
// (the daemon recovers before it opens its listener).
//
// The daemon runs under the SCHED_IDLE policy (chrt --idle): when it
// saturates every CPU, the kernel still runs the generator when its
// timer fires instead of at the end of the daemon's time slice
// (which made the generator's p99 lateness ~2 ms), and the daemon still
// gets every cycle the light generator leaves idle.
func startDaemon(bin string, args ...string) (*daemon, time.Duration, error) {
	lt := &logTail{addr: make(chan string, 1)}
	cmd := exec.Command("chrt", append([]string{"--idle", "0", bin, "-addr", "127.0.0.1:0"}, args...)...)
	cmd.Stderr = lt
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("start rlckitd: %w", err)
	}
	d := &daemon{cmd: cmd, exited: make(chan struct{})}
	go func() {
		_ = cmd.Wait() // the exit status of a stopped daemon carries no information
		close(d.exited)
	}()
	select {
	case addr := <-lt.addr:
		d.base = "http://" + addr
	case <-d.exited:
		return nil, 0, fmt.Errorf("rlckitd exited during startup:\n%s", lt)
	case <-time.After(60 * time.Second):
		d.kill()
		return nil, 0, fmt.Errorf("rlckitd did not listen within 60s:\n%s", lt)
	}
	for {
		resp, err := ctlClient.Get(d.base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, time.Since(start), nil
			}
		}
		if time.Since(start) > 60*time.Second {
			d.kill()
			return nil, 0, fmt.Errorf("rlckitd /healthz not ready within 60s (%v):\n%s", err, lt)
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// stop sends SIGTERM (a graceful shutdown, which takes the final
// snapshot of a store) and waits for the exit, killing the process if
// it has not exited within grace.
func (d *daemon) stop(grace time.Duration) {
	select {
	case <-d.exited:
		return
	default:
	}
	_ = d.cmd.Process.Signal(syscall.SIGTERM) // the process may have exited since the check
	select {
	case <-d.exited:
	case <-time.After(grace):
		d.kill()
	}
}

// kill stops the process at once and waits for it to exit.
func (d *daemon) kill() {
	_ = d.cmd.Process.Kill() // the process may already have exited
	<-d.exited
}

// debugVars is the part of the daemon's /debug/vars this harness reads.
type debugVars struct {
	Rlckitd  serve.Stats      `json:"rlckitd"`
	Memstats runtime.MemStats `json:"memstats"`
}

func (d *daemon) vars() (debugVars, error) {
	var v debugVars
	resp, err := ctlClient.Get(d.base + "/debug/vars")
	if err != nil {
		return v, fmt.Errorf("read /debug/vars: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return v, fmt.Errorf("read /debug/vars: status %d", resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		return v, fmt.Errorf("decode /debug/vars: %w", err)
	}
	return v, nil
}

// peakRSSMB reads the daemon's VmHWM (peak resident set) in MiB.
func (d *daemon) peakRSSMB() (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM line in /proc/%d/status", d.cmd.Process.Pid)
}

// copyDir copies the regular files of src into a new directory dst.
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range ents {
		if !e.Type().IsRegular() {
			continue
		}
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), b, 0o644); err != nil {
			return err
		}
	}
	return nil
}
