package main

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// findRoot walks up from the working directory to the repository root:
// the directory whose go.mod declares module repro. The benchmark builds
// cmd/orion-server from there, so a directory that holds only the
// benchmark's own files is refused.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if b, err := os.ReadFile(filepath.Join(dir, "go.mod")); err == nil {
			for _, line := range strings.Split(string(b), "\n") {
				if strings.TrimSpace(line) == "module repro" {
					return dir, nil
				}
			}
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod of module repro above the working directory: run from the repository root")
		}
		dir = parent
	}
}

// buildServer compiles cmd/orion-server into <root>/.bench_build.
func buildServer(root string) (string, error) {
	if _, err := os.Stat(filepath.Join(root, "cmd", "orion-server", "main.go")); err != nil {
		return "", fmt.Errorf("cmd/orion-server not found under %s: %w", root, err)
	}
	bin := filepath.Join(root, ".bench_build", "orion-server")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/orion-server")
	cmd.Dir = root
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return "", fmt.Errorf("go build ./cmd/orion-server: %w", err)
	}
	return bin, nil
}

// children registers every live orion-server so that a signal that ends
// the benchmark early still leaves no process behind.
var children struct {
	sync.Mutex
	live map[*child]struct{}
}

// killChildrenOnSignal ends the benchmark on SIGINT or SIGTERM after
// killing whatever servers are running.
func killChildrenOnSignal() {
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-sig
		children.Lock()
		for c := range children.live {
			_ = c.cmd.Process.Kill()
		}
		os.Exit(1)
	}()
}

// child is one orion-server process.
type child struct {
	cmd     *exec.Cmd
	addr    string // TCP address it reported on stderr
	metrics string // HTTP address of /metrics
	pid     int

	mu   sync.Mutex
	tail []string // its last lines on stderr, for the error that explains a dead server
}

const stderrTail = 30

func (s *child) noteStderr(line string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.tail) == stderrTail {
		s.tail = s.tail[1:]
	}
	s.tail = append(s.tail, line)
}

// lastWords is what the server last wrote on stderr, indented.
func (s *child) lastWords() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.tail) == 0 {
		return "(orion-server wrote nothing on stderr)"
	}
	return "orion-server stderr, last lines:\n  " + strings.Join(s.tail, "\n  ")
}

// freePort asks the kernel for an unused loopback port. The server's
// -metrics flag does not report what it bound, so the benchmark picks the
// port; the window between Close and the child's bind is harmless on a
// private loopback.
func freePort() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

// spawn starts orion-server on dir with fsync on commit, the default
// 256-page pool and one shard, and waits until it listens. One retry
// covers the metrics port being taken between freePort and the bind.
func spawn(bin, dir string) (*child, error) {
	s, err := spawnOnce(bin, dir)
	if err != nil {
		logf("spawn: %v; retrying once", err)
		s, err = spawnOnce(bin, dir)
	}
	return s, err
}

func spawnOnce(bin, dir string) (*child, error) {
	maddr, err := freePort()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, "-db", dir, "-sync", "-addr", "127.0.0.1:0", "-metrics", maddr)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start orion-server: %w", err)
	}
	s := &child{cmd: cmd, metrics: maddr, pid: cmd.Process.Pid}
	children.Lock()
	if children.live == nil {
		children.live = map[*child]struct{}{}
	}
	children.live[s] = struct{}{}
	children.Unlock()
	addrc := make(chan string, 1)
	go func() {
		// Reads until the child's stderr closes, i.e. until it exits, so the
		// child never blocks on a full pipe. Most of it is flight-recorder
		// dumps, one per deadlock victim; only the tail is kept.
		sc := bufio.NewScanner(stderr)
		sc.Buffer(make([]byte, 64<<10), 1<<20)
		for sc.Scan() {
			if a, ok := strings.CutPrefix(sc.Text(), "orion-server listening on "); ok {
				addrc <- a
			} else {
				s.noteStderr(sc.Text())
			}
		}
		_, _ = io.Copy(io.Discard, stderr) // a line over the scanner's limit ends the scan, not the drain
		close(addrc)
	}()
	select {
	case a, ok := <-addrc:
		if !ok {
			s.kill()
			return nil, fmt.Errorf("orion-server exited before listening\n%s", s.lastWords())
		}
		s.addr = a
	case <-time.After(120 * time.Second):
		s.kill()
		return nil, fmt.Errorf("orion-server did not listen within 120s")
	}
	// The metrics listener starts after the TCP one; wait for it.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if _, err := scrape(s.metrics); err == nil {
			return s, nil
		} else if time.Now().After(deadline) {
			s.kill()
			return nil, fmt.Errorf("metrics endpoint: %w\n%s", err, s.lastWords())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// kill sends SIGKILL and reaps the child: no drain, no checkpoint — what
// the WAL holds is all a restart gets.
func (s *child) kill() {
	if s == nil || s.cmd.Process == nil {
		return
	}
	_ = s.cmd.Process.Kill() // already-exited is fine
	_ = s.cmd.Wait()         // the exit status of a killed child is not an error here
	children.Lock()
	delete(children.live, s)
	children.Unlock()
}

const clockTick = 100.0 // USER_HZ; fixed at 100 on every Linux ABI Go runs on

// cpuMillis returns the child's user+system CPU time so far, all threads.
func (s *child) cpuMillis() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", s.pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name, which may hold spaces.
	i := strings.LastIndexByte(string(b), ')')
	f := strings.Fields(string(b[i+1:]))
	if i < 0 || len(f) < 13 {
		return 0, fmt.Errorf("malformed /proc/%d/stat", s.pid)
	}
	utime, err1 := strconv.ParseFloat(f[11], 64) // field 14
	stime, err2 := strconv.ParseFloat(f[12], 64) // field 15
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("malformed /proc/%d/stat times", s.pid)
	}
	return (utime + stime) * 1000 / clockTick, nil
}

// rssPeakMB returns the child's peak resident set (VmHWM).
func (s *child) rssPeakMB() (float64, error) {
	return statusKB(s.pid, "VmHWM:")
}

func statusKB(pid int, key string) (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), key); ok {
			fields := strings.Fields(rest)
			if len(fields) == 0 {
				break
			}
			kb, err := strconv.ParseFloat(fields[0], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("%s not found in /proc/%d/status", key, pid)
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if info.Mode().IsRegular() {
			n += info.Size()
		}
		return nil
	})
	return n, err
}

// fsType names the filesystem holding path, from /proc/self/mountinfo
// (longest mount point that prefixes path).
func fsType(path string) string {
	f, err := os.Open("/proc/self/mountinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	b, err := io.ReadAll(f)
	if err != nil {
		return "unknown"
	}
	best, typ := "", "unknown"
	for _, line := range strings.Split(string(b), "\n") {
		left, right, ok := strings.Cut(line, " - ")
		lf, rf := strings.Fields(left), strings.Fields(right)
		if !ok || len(lf) < 5 || len(rf) < 1 {
			continue
		}
		mp := lf[4]
		if (path == mp || strings.HasPrefix(path, strings.TrimSuffix(mp, "/")+"/")) && len(mp) > len(best) {
			best, typ = mp, rf[0]
		}
	}
	return typ
}
