package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// daemon is one chipletd child process started at its defaults: only the
// listen address and the log level are set, and GOMAXPROCS is pinned to
// the CPU count so the daemon's worker budget matches the box.
type daemon struct {
	cmd  *exec.Cmd
	base string
	log  *cappedBuffer
	done chan struct{} // closed once cmd.Wait has returned
	err  error         // cmd.Wait's result, valid after done
}

// startDaemon execs chipletd and waits until GET /healthz answers 200.
func startDaemon() (*daemon, error) {
	bin := filepath.Join(binDir, "chipletd")
	if _, err := os.Stat(bin); err != nil {
		return nil, fmt.Errorf("chipletd binary: %w (build it with chipletbench/run.sh)", err)
	}
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	d := &daemon{base: "http://" + addr, log: &cappedBuffer{max: 64 << 10}, done: make(chan struct{})}
	d.cmd = exec.Command(bin, "-addr", addr, "-log-level", "warn")
	d.cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(runtime.NumCPU()))
	d.cmd.Stdout = d.log
	d.cmd.Stderr = d.log
	// The daemon must not outlive the benchmark, even if it is killed.
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := d.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start chipletd: %w", err)
	}
	go func() {
		d.err = d.cmd.Wait()
		close(d.done)
	}()

	client := &http.Client{Timeout: time.Second}
	deadline := time.Now().Add(30 * time.Second)
	for {
		select {
		case <-d.done:
			d.stop()
			return nil, fmt.Errorf("chipletd exited during start-up (%v): %s", d.err, d.log.String())
		default:
		}
		resp, err := client.Get(d.base + "/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, fmt.Errorf("chipletd not healthy after 30s: %s", d.log.String())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// stop sends SIGTERM, waits for the graceful drain, and kills the process
// if it has not exited within ten seconds. It returns once the process has
// been reaped.
func (d *daemon) stop() {
	select {
	case <-d.done:
		return
	default:
	}
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.done:
	case <-time.After(10 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.done
	}
}

func (d *daemon) pid() int { return d.cmd.Process.Pid }

// cpuSeconds reads the daemon's user+system CPU time from /proc/<pid>/stat.
func (d *daemon) cpuSeconds() (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.pid()))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesized command name; utime and stime are the
	// 14th and 15th fields of the whole line, in clock ticks (USER_HZ, which
	// Linux fixes at 100 for this file).
	s := string(raw)
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return 0, fmt.Errorf("malformed /proc stat line")
	}
	f := strings.Fields(s[i+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat line")
	}
	ut, err1 := strconv.ParseFloat(f[11], 64)
	st, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("parse /proc stat times: %v %v", err1, err2)
	}
	return (ut + st) / 100, nil
}

// rssMB reads the daemon's resident set size (VmRSS) in MiB.
func (d *daemon) rssMB() (float64, error) {
	fh, err := os.Open(fmt.Sprintf("/proc/%d/status", d.pid()))
	if err != nil {
		return 0, err
	}
	defer fh.Close()
	sc := bufio.NewScanner(fh)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmRSS:"); ok {
			f := strings.Fields(rest)
			if len(f) == 0 {
				break
			}
			kb, err := strconv.ParseFloat(f[0], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("VmRSS not found in /proc/%d/status", d.pid())
}

// scrape fetches /metrics and sums every sample by series, keyed as
// name{labels} and, summed over all label sets, by bare name.
func (d *daemon) scrape() (promSamples, error) {
	resp, err := http.Get(d.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: status %d", resp.StatusCode)
	}
	out := promSamples{}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		series := line[:sp]
		out[series] += v
		if j := strings.IndexByte(series, '{'); j >= 0 {
			out[series[:j]] += v
		}
	}
	return out, sc.Err()
}

// promSamples maps a series (or a bare metric name, summed over labels) to
// its value.
type promSamples map[string]float64

// delta returns after[k] - before[k].
func delta(before, after promSamples, k string) float64 { return after[k] - before[k] }

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	return ln.Addr().(*net.TCPAddr).Port, nil
}

// cappedBuffer keeps the first max bytes written to it (daemon logs for
// error messages) and drops the rest.
type cappedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
	max int
}

func (c *cappedBuffer) Write(p []byte) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if room := c.max - c.buf.Len(); room > 0 {
		if len(p) > room {
			c.buf.Write(p[:room])
		} else {
			c.buf.Write(p)
		}
	}
	return len(p), nil
}

func (c *cappedBuffer) String() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return strings.TrimSpace(c.buf.String())
}
