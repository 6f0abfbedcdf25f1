package main

import (
	"bytes"
	"context"
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
	"sync"
	"syscall"
	"time"

	"medvault/internal/medclient"
	"medvault/internal/vaultcfg"
)

// masterKeyHex is the vault master key every benchmark vault uses. It
// protects nothing: the data is synthetic and the directory is deleted.
const masterKeyHex = "6d65647661756c742d62656e63686d61726b2d6b65792d303132333435363738" // hex of "medvault-benchmark-key-012345678"

// lab owns everything a benchmark process leaves on disk or running: the
// medvaultd binary, the per-run data directories and the child servers. Its
// cleanup runs on every exit path, including SIGINT and a failed gate.
type lab struct {
	root string // repository root (holds go.mod and cmd/medvaultd)
	// outDir is root/bench/out, the one directory a run writes to: the
	// medvaultd binary, vault data directories, child stderr and traces. It
	// is inside the checkout, so on the same real filesystem as the source.
	outDir string
	binary string

	mu       sync.Mutex
	children []*child
	dirs     []string
}

// findRoot locates the repository root from the working directory: `go run
// -C bench .` starts the program inside bench/, `go test` likewise.
func findRoot() (string, error) {
	wd, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for _, dir := range []string{wd, filepath.Dir(wd)} {
		if _, err := os.Stat(filepath.Join(dir, "cmd", "medvaultd", "main.go")); err == nil {
			return dir, nil
		}
	}
	return "", fmt.Errorf("no cmd/medvaultd beside or above %s: run from the repository (go run -C bench .)", wd)
}

// newLab prepares the directories and builds medvaultd from the checkout's
// source. The go command decides whether anything is stale, so a warm build
// costs well under a second and a stale binary is impossible.
func newLab() (*lab, error) {
	root, err := findRoot()
	if err != nil {
		return nil, err
	}
	l := &lab{root: root, outDir: filepath.Join(root, "bench", "out")}
	l.binary = filepath.Join(l.outDir, "medvaultd")
	if err := os.MkdirAll(l.outDir, 0o755); err != nil {
		return nil, err
	}
	cmd := exec.Command("go", "build", "-o", l.binary, "./cmd/medvaultd")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return nil, fmt.Errorf("building medvaultd: %w\n%s", err, out)
	}
	return l, nil
}

// cleanup kills every live child and removes every data directory.
func (l *lab) cleanup() {
	l.mu.Lock()
	children, dirs := l.children, l.dirs
	l.children, l.dirs = nil, nil
	l.mu.Unlock()
	for _, c := range children {
		c.kill()
	}
	for _, d := range dirs {
		os.RemoveAll(d)
	}
}

// newDataDir makes a fresh vault directory holding the benchmark principals.
// base overrides where it is made (the /dev/shm resolving-power check);
// empty means under the lab's own directory, a real filesystem.
func (l *lab) newDataDir(base string) (string, error) {
	if base == "" {
		base = l.outDir
	}
	dir, err := os.MkdirTemp(base, "vault-")
	if err != nil {
		return "", err
	}
	l.mu.Lock()
	l.dirs = append(l.dirs, dir)
	l.mu.Unlock()
	err = os.WriteFile(filepath.Join(dir, vaultcfg.PrincipalsFile), []byte(principalsConf()), 0o600)
	return dir, err
}

// child is one running medvaultd.
type child struct {
	cmd  *exec.Cmd
	base string // http://127.0.0.1:port
	done chan struct{}
	err  error // cmd.Wait's result, valid after done closes
}

// start launches medvaultd on dir with extra flags, its stderr appended to
// logPath, and returns once /healthz answers 200 or ctx is cancelled.
func (l *lab) start(ctx context.Context, dir, logPath string, flags []string) (*child, error) {
	// The port comes from the kernel: bind :0, read it back, release it.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := ln.Addr().String()
	ln.Close()

	logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	defer logf.Close() // the child holds its own descriptor
	args := append([]string{"-dir", dir, "-addr", addr}, flags...)
	cmd := exec.Command(l.binary, args...)
	cmd.Env = append(os.Environ(), "MEDVAULT_KEY="+masterKeyHex)
	cmd.Stdout = logf
	cmd.Stderr = logf
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	c := &child{cmd: cmd, base: "http://" + addr, done: make(chan struct{})}
	go func() {
		c.err = cmd.Wait()
		close(c.done)
	}()
	l.mu.Lock()
	l.children = append(l.children, c)
	l.mu.Unlock()

	probe := medclient.New(c.base, medclient.WithHTTPClient(&http.Client{Timeout: 2 * time.Second}))
	deadline := time.Now().Add(60 * time.Second)
	for {
		if _, _, err := probe.Healthz(ctx); err == nil {
			return c, nil
		}
		select {
		case <-c.done:
			return nil, fmt.Errorf("medvaultd exited before serving (%v); see %s", c.err, logPath)
		case <-ctx.Done():
			c.kill()
			return nil, ctx.Err()
		case <-time.After(2 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			c.kill()
			return nil, fmt.Errorf("medvaultd not healthy after 60s; see %s", logPath)
		}
	}
}

// kill is kill -9 and a wait for the process to be gone.
func (c *child) kill() {
	_ = c.cmd.Process.Signal(syscall.SIGKILL)
	<-c.done
}

// clockTicksPerSecond is USER_HZ, the unit of /proc/<pid>/stat CPU fields.
// Linux has fixed it at 100 for every architecture Go runs on.
const clockTicksPerSecond = 100

// cpuSeconds reads the child's user+system CPU time from /proc/<pid>/stat.
func (c *child) cpuSeconds() (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", c.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) is parenthesised and may hold spaces;
	// fields are counted from after the closing parenthesis.
	i := bytes.LastIndexByte(raw, ')')
	fields := strings.Fields(string(raw[i+1:]))
	if i < 0 || len(fields) < 13 {
		return 0, fmt.Errorf("unparseable /proc stat line %q", raw)
	}
	utime, err1 := strconv.ParseUint(fields[11], 10, 64) // field 14
	stime, err2 := strconv.ParseUint(fields[12], 10, 64) // field 15
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	return float64(utime+stime) / clockTicksPerSecond, nil
}

// ownCPUSeconds is the harness's own user+system CPU time so far. Its cost
// per op is the load generator's share of the two CPUs.
func ownCPUSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// statusMiB reads one of the child's memory lines from /proc/<pid>/status:
// VmHWM is the resident-set high-water mark, VmRSS the resident set now.
func (c *child) statusMiB(field string) (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", c.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, field+":"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no %s line in /proc status", field)
}

// rssEvery is how often the child's resident set is read during the timed
// phase.
const rssEvery = 50 * time.Millisecond

// watchRSS starts reading the child's resident set every rssEvery; the
// returned stop ends the reading, waits for it and returns the readings. The
// reader sleeps between two reads of one small file, so it takes no
// measurable share of the load generator's CPUs.
func (c *child) watchRSS() (stop func() []float64) {
	quit, done := make(chan struct{}), make(chan []float64)
	go func() {
		var xs []float64
		tick := time.NewTicker(rssEvery)
		defer tick.Stop()
		for {
			if mib, err := c.statusMiB("VmRSS"); err == nil {
				xs = append(xs, mib)
			}
			select {
			case <-quit:
				done <- xs
				return
			case <-tick.C:
			}
		}
	}()
	return func() []float64 {
		close(quit)
		return <-done
	}
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || !d.Type().IsRegular() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		total += info.Size()
		return nil
	})
	return total, err
}
