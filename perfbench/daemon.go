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
	"syscall"
	"time"
)

// daemon is one sqlcleand child process.
type daemon struct {
	cmd     *exec.Cmd
	base    string
	logPath string
	done    chan error // receives Wait's result once
	exited  bool
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

var healthClient = &http.Client{Timeout: 10 * time.Second}

// startDaemon execs sqlcleand on dataDir and returns once /healthz first
// answers 200, with the time from exec to that answer: restore plus replay
// plus process start.
func startDaemon(e *env, dataDir, cleanPath, logPath string, flags []string) (*daemon, time.Duration, error) {
	port, err := freePort()
	if err != nil {
		return nil, 0, err
	}
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, 0, err
	}
	args := append([]string{
		"-addr", fmt.Sprintf("127.0.0.1:%d", port),
		"-data-dir", dataDir,
		"-clean", cleanPath,
		"-log-format", "json",
	}, flags...)
	cmd := exec.Command(filepath.Join(e.binDir, "sqlcleand"), args...)
	cmd.Stdout = logf
	cmd.Stderr = logf
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, 0, fmt.Errorf("start sqlcleand: %w", err)
	}
	track(cmd.Process)
	d := &daemon{cmd: cmd, base: fmt.Sprintf("http://127.0.0.1:%d", port), logPath: logPath, done: make(chan error, 1)}
	go func() {
		err := cmd.Wait()
		untrack(cmd.Process)
		logf.Close()
		d.done <- err
	}()
	deadline := t0.Add(120 * time.Second)
	for {
		resp, err := healthClient.Get(d.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, time.Since(t0), nil
			}
		}
		select {
		case werr := <-d.done:
			d.exited = true
			return nil, 0, fmt.Errorf("sqlcleand exited during start-up (%v); log %s: %s", werr, logPath, tail(logPath))
		default:
		}
		if time.Now().After(deadline) {
			d.kill()
			return nil, 0, fmt.Errorf("sqlcleand not healthy after 120s; log: %s", tail(logPath))
		}
		time.Sleep(time.Millisecond)
	}
}

func (d *daemon) pid() int { return d.cmd.Process.Pid }

// kill stops the daemon with SIGKILL, as a crash would, and waits for it.
func (d *daemon) kill() {
	if d == nil || d.exited {
		return
	}
	_ = d.cmd.Process.Kill()
	<-d.done
	d.exited = true
}

// stop sends SIGTERM, waits for the graceful drain and returns the final
// "drained" counters from the daemon's log.
func (d *daemon) stop() (drained map[string]float64, err error) {
	if d.exited {
		return nil, errors.New("daemon already exited")
	}
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return nil, err
	}
	select {
	case werr := <-d.done:
		d.exited = true
		if werr != nil {
			return nil, fmt.Errorf("sqlcleand drain: %v; log: %s", werr, tail(d.logPath))
		}
	case <-time.After(90 * time.Second):
		d.kill()
		return nil, errors.New("sqlcleand did not drain within 90s")
	}
	f, err := os.Open(d.logPath)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64<<10), 4<<20)
	for sc.Scan() {
		var line map[string]any
		if json.Unmarshal(sc.Bytes(), &line) != nil || line["msg"] != "drained" {
			continue
		}
		drained = map[string]float64{}
		for k, v := range line {
			if n, ok := v.(float64); ok {
				drained[k] = n
			}
		}
	}
	if drained == nil {
		return nil, fmt.Errorf("no drained line in daemon log: %s", tail(d.logPath))
	}
	return drained, sc.Err()
}

func tail(path string) string {
	b, _ := os.ReadFile(path)
	if len(b) > 2000 {
		b = b[len(b)-2000:]
	}
	return string(b)
}

// healthPayload is the part of GET /healthz the benchmark reads.
type healthPayload struct {
	EntriesIn  int `json:"entries_in"`
	QueueDepth int `json:"queue_depth"`
}

func getHealth(c *http.Client, base string) (healthPayload, error) {
	var h healthPayload
	resp, err := c.Get(base + "/healthz")
	if err != nil {
		return h, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return h, fmt.Errorf("healthz: status %d", resp.StatusCode)
	}
	return h, json.NewDecoder(resp.Body).Decode(&h)
}

// scrape reads every unlabelled sample of the daemon's /metrics page,
// without the "sqlclean_" prefix.
func scrape(base string) (map[string]float64, error) {
	resp, err := healthClient.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("metrics: status %d", resp.StatusCode)
	}
	out := map[string]float64{}
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" || line[0] == '#' || strings.ContainsRune(line, '{') {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		if v, err := strconv.ParseFloat(strings.TrimSpace(val), 64); err == nil {
			out[strings.TrimPrefix(name, "sqlclean_")] = v
		}
	}
	return out, nil
}

func delta(m0, m1 map[string]float64, name string) float64 { return m1[name] - m0[name] }

func countLines(path string) (int, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return 0, nil
		}
		return 0, err
	}
	return bytes.Count(b, []byte{'\n'}), nil
}

// copyDir copies a flat-or-nested data directory of regular files.
func copyDir(src, dst string) error {
	return filepath.Walk(src, func(p string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, p)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if info.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		b, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		return os.WriteFile(target, b, 0o644)
	})
}
