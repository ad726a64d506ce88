package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"time"
)

// proc is one server process the benchmark started.
type proc struct {
	name string
	cmd  *exec.Cmd
	log  *lockedBuffer
	done chan struct{} // closed once Wait returned
}

// lockedBuffer collects a child's output; exec copies into it from its own
// goroutine while the benchmark may read it for an error report.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// fleet is the set of server processes behind one workload: a single
// socbufd, or socbufrouter in front of socbufd shards. url is where clients
// send requests.
type fleet struct {
	url   string
	procs []*proc
}

// freePort asks the kernel for an unused loopback port. The port is free
// when this returns; a process started right after binds it.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// startFleet starts fresh server processes with default flags (apart from
// addresses) and returns once every /v1/readyz answers 200. Shards start
// before the router, so the router's first health poll sees them ready.
func startFleet(ctx context.Context, bin string, shards int) (*fleet, error) {
	f := &fleet{}
	if err := f.start(ctx, bin, shards); err != nil {
		f.stop()
		return nil, err
	}
	return f, nil
}

func (f *fleet) start(ctx context.Context, bin string, shards int) error {
	port, err := freePort()
	if err != nil {
		return err
	}
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	f.url = "http://" + addr
	if shards == 0 {
		return f.spawn(ctx, bin, "socbufd", addr)
	}
	var backends []string
	for i := 0; i < shards; i++ {
		port, err := freePort()
		if err != nil {
			return err
		}
		shard := fmt.Sprintf("127.0.0.1:%d", port)
		backends = append(backends, "http://"+shard)
		if err := f.spawn(ctx, bin, "socbufd", shard, "-remote-cache", f.url+"/v1/cache"); err != nil {
			return err
		}
	}
	return f.spawn(ctx, bin, "socbufrouter", addr, "-backends", strings.Join(backends, ","))
}

// spawn starts one server listening on addr and waits for its readiness
// endpoint. The child is killed if the benchmark process dies without
// stopping it.
func (f *fleet) spawn(ctx context.Context, bin, name, addr string, args ...string) error {
	p := &proc{name: name, log: &lockedBuffer{}, done: make(chan struct{})}
	p.cmd = exec.Command(filepath.Join(bin, name), append([]string{"-addr", addr}, args...)...)
	p.cmd.Stdout, p.cmd.Stderr = p.log, p.log
	p.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := p.cmd.Start(); err != nil {
		return fmt.Errorf("starting %s: %w", name, err)
	}
	go func() {
		_ = p.cmd.Wait() // the exit status is read from ProcessState in stop
		close(p.done)
	}()
	f.procs = append(f.procs, p)
	return waitReady(ctx, p, "http://"+addr+"/v1/readyz")
}

// waitReady polls url every 2 ms until it answers 200, the process exits,
// or 30 s pass.
func waitReady(ctx context.Context, p *proc, url string) error {
	client := &http.Client{Timeout: time.Second}
	deadline := time.Now().Add(30 * time.Second)
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
		if err != nil {
			return err
		}
		if resp, err := client.Do(req); err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-p.done:
			return fmt.Errorf("%s exited before it was ready:\n%s", p.name, p.log.String())
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(2 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s not ready at %s after 30s:\n%s", p.name, url, p.log.String())
		}
	}
}

// stop kills every process and waits for it to exit, and returns the sum
// of their peak resident set sizes in MB. The benchmark measures set-up and
// load, not shutdown: a graceful one can take seconds (see README.md). A
// process that had already exited on its own is reported as an error.
func (f *fleet) stop() (float64, error) {
	var errs []error
	var rssKB int64
	for _, p := range f.procs {
		_ = p.cmd.Process.Kill() // fails only if it already exited, which Wait reports
	}
	for _, p := range f.procs {
		<-p.done
		st := p.cmd.ProcessState
		if ru, ok := st.SysUsage().(*syscall.Rusage); ok {
			rssKB += ru.Maxrss // kilobytes on Linux
		}
		if ws, ok := st.Sys().(syscall.WaitStatus); !ok || !ws.Signaled() || ws.Signal() != syscall.SIGKILL {
			errs = append(errs, fmt.Errorf("%s exited during the run (%v):\n%s", p.name, st, p.log.String()))
		}
	}
	f.procs = nil
	return float64(rssKB) / 1024, errors.Join(errs...)
}
