package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// server is one dmfserve child process. Its stderr log is read line by
// line and timestamped on arrival, which is how the benchmark times the
// start-up training burst from outside the process.
type server struct {
	cmd     *exec.Cmd
	base    string
	started time.Time
	exited  chan struct{}
	waitErr error

	mu        sync.Mutex
	trainAt   time.Time // "training:" line
	trainedAt time.Time // "trained:" line
	tail      []string
}

// children tracks every live child so that an interrupt reaps them all.
var children struct {
	sync.Mutex
	set map[*server]bool
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	return ln.Addr().(*net.TCPAddr).Port, nil
}

// startServer execs dmfserve in dir on a fresh loopback port.
func startServer(bin, dir string, args []string) (*server, error) {
	port, err := freePort()
	if err != nil {
		return nil, fmt.Errorf("pick port: %w", err)
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	cmd := exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	cmd.Dir = dir
	// One P each for dmfserve and the client (see loadGen.window): with
	// both runtimes at two Ps on a two-core box, their idle Ps spin
	// against each other and throughput swings with thread placement.
	cmd.Env = append(os.Environ(), "GOMAXPROCS=1")
	// The child dies with the benchmark even if the benchmark is killed
	// before it can stop it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	s := &server{cmd: cmd, base: "http://" + addr, exited: make(chan struct{})}
	children.Lock()
	if children.set == nil {
		children.set = make(map[*server]bool)
	}
	s.started = time.Now()
	err = cmd.Start()
	if err == nil {
		children.set[s] = true
	}
	children.Unlock()
	if err != nil {
		return nil, fmt.Errorf("start dmfserve: %w", err)
	}
	go s.readLog(stderr)
	return s, nil
}

func (s *server) readLog(r io.Reader) {
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		now := time.Now()
		line := sc.Text()
		s.mu.Lock()
		switch {
		case strings.Contains(line, " training: "):
			s.trainAt = now
		case strings.Contains(line, " trained: "):
			s.trainedAt = now
		}
		s.tail = append(s.tail, line)
		if len(s.tail) > 20 {
			s.tail = s.tail[1:]
		}
		s.mu.Unlock()
	}
	s.waitErr = s.cmd.Wait()
	children.Lock()
	delete(children.set, s)
	children.Unlock()
	close(s.exited)
}

func (s *server) logTail() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return strings.Join(s.tail, "\n")
}

// trainSeconds is the start-up training burst as seen on the log.
func (s *server) trainSeconds() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.trainAt.IsZero() || s.trainedAt.IsZero() {
		return 0
	}
	return s.trainedAt.Sub(s.trainAt).Seconds()
}

// waitReady polls /healthz until it answers 200 and returns the time
// since exec.
func (s *server) waitReady(ctx context.Context, hc *http.Client, limit time.Duration) (time.Duration, error) {
	deadline := time.Now().Add(limit)
	for {
		select {
		case <-s.exited:
			return 0, fmt.Errorf("dmfserve exited before serving (%v):\n%s", s.waitErr, s.logTail())
		case <-ctx.Done():
			return 0, ctx.Err()
		default:
		}
		resp, err := hc.Get(s.base + "/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return time.Since(s.started), nil
			}
		}
		if time.Now().After(deadline) {
			return 0, fmt.Errorf("dmfserve not ready after %v:\n%s", limit, s.logTail())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// stop sends SIGTERM, which makes dmfserve save its shutdown checkpoint,
// and waits for the exit; a process still running after 20 s is killed.
func (s *server) stop() error {
	select {
	case <-s.exited:
		return nil
	default:
	}
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.exited:
	case <-time.After(20 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.exited
		return errors.New("dmfserve ignored SIGTERM for 20s and was killed")
	}
	var ee *exec.ExitError
	if s.waitErr != nil && !errors.As(s.waitErr, &ee) {
		return s.waitErr
	}
	if s.waitErr != nil {
		return fmt.Errorf("dmfserve exit: %v\n%s", s.waitErr, s.logTail())
	}
	return nil
}

// killChildren kills and reaps every child still running.
func killChildren() {
	children.Lock()
	live := make([]*server, 0, len(children.set))
	for s := range children.set {
		live = append(live, s)
	}
	children.Unlock()
	for _, s := range live {
		_ = s.cmd.Process.Kill()
		<-s.exited
	}
}

// procCPU returns a process's user+system CPU time from /proc/<pid>/stat.
func procCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/stat")
	if err != nil {
		return 0, err
	}
	// The command name may hold spaces; fields resume after its ')'.
	rest := string(b[strings.LastIndexByte(string(b), ')')+2:])
	f := strings.Fields(rest)
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad /proc/%d/stat", pid)
	}
	const tick = 10 * time.Millisecond // USER_HZ is 100 on Linux
	return time.Duration(ut+st) * tick, nil
}

// peakRSSMB is VmHWM from /proc/<pid>/status ("self" for this process).
func peakRSSMB(pid string) (float64, error) {
	b, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			f := strings.Fields(line)
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM")
}

// selfCPU is this process's user+system CPU time.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// cpuMask is a sched_setaffinity CPU set of up to 1024 CPUs.
type cpuMask [16]uint64

func getAffinity(tid int) (cpuMask, error) {
	var m cpuMask
	_, _, e := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, uintptr(tid), unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m)))
	if e != 0 {
		return m, e
	}
	return m, nil
}

func setAffinity(tid int, m cpuMask) error {
	_, _, e := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid), unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m)))
	if e != 0 {
		return e
	}
	return nil
}

// pinProcess sets the CPU set of every thread of process pid ("self"
// or a number). A thread created meanwhile inherits its creator's set,
// so a second pass catches threads the first one raced with.
func pinProcess(pid string, m cpuMask) error {
	for pass := 0; pass < 2; pass++ {
		ents, err := os.ReadDir("/proc/" + pid + "/task")
		if err != nil {
			return err
		}
		for _, e := range ents {
			tid, err := strconv.Atoi(e.Name())
			if err != nil {
				continue
			}
			// A thread that exited in between is no error.
			if err := setAffinity(tid, m); err != nil && !errors.Is(err, syscall.ESRCH) {
				return err
			}
		}
	}
	return nil
}

// cpuSets returns this process's CPU set and single-CPU sets of its
// first two CPUs; n is how many of those two exist.
func cpuSets() (all, first, second cpuMask, n int, err error) {
	if all, err = getAffinity(0); err != nil {
		return
	}
	for c := 0; c < len(all)*64 && n < 2; c++ {
		if all[c/64]&(1<<(c%64)) != 0 {
			if n == 0 {
				first[c/64] = 1 << (c % 64)
			} else {
				second[c/64] = 1 << (c % 64)
			}
			n++
		}
	}
	return
}

// pinApart puts this process on one CPU and the servers (pids) on
// another, for the length of an HTTP window, and returns the function
// that gives this process back its CPU set. Left to the scheduler, the
// processes' threads keep changing places on the two cores, which moves
// throughput by itself; see README.md. With fewer than two CPUs it does
// nothing.
func pinApart(pids ...int) (restore func(), err error) {
	all, mine, theirs, n, err := cpuSets()
	if err != nil {
		return nil, err
	}
	if n < 2 {
		return func() {}, nil
	}
	for _, pid := range pids {
		if err := pinProcess(strconv.Itoa(pid), theirs); err != nil {
			return nil, fmt.Errorf("pin server %d: %w", pid, err)
		}
	}
	if err := pinProcess("self", mine); err != nil {
		return nil, fmt.Errorf("pin benchmark: %w", err)
	}
	return func() { _ = pinProcess("self", all) }, nil
}

// pinSelf keeps this process to one P on one CPU until restore is
// first called. The two in-process trainers then share one core: spread over
// two, every round crosses between the cores through TCP and barrier
// waits, and the cluster's rate read 1.10M–1.81M updates/s over ten
// runs (spread 24.5%); on one, 835k–869k over five (see README.md).
func pinSelf() (restore func(), err error) {
	all, first, _, n, err := cpuSets()
	if err != nil {
		return nil, err
	}
	if n > 0 {
		if err := pinProcess("self", first); err != nil {
			return nil, fmt.Errorf("pin benchmark: %w", err)
		}
	}
	prev := runtime.GOMAXPROCS(1)
	var once sync.Once
	return func() {
		once.Do(func() {
			runtime.GOMAXPROCS(prev)
			_ = pinProcess("self", all)
		})
	}, nil
}
