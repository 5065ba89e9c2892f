package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// stamped is one stdout line of smashd with the time the generator read
// it; win is the parsed record when the line is a window result.
type stamped struct {
	at   time.Time
	line []byte
	win  *windowRecord
}

// daemon is one running smashd process.
type daemon struct {
	name   string
	api    string       // base URL of its HTTP API
	client *http.Client // the generator's one connection to it
	cmd    *exec.Cmd
	stderr tailBuffer
	done   chan struct{} // closed once the process has exited and stdout is drained

	hwm atomic.Int64 // peak resident bytes seen in /proc/<pid>/status

	mu      sync.Mutex
	lines   []stamped
	windows int           // window records among lines
	lineage int           // lineage of the newest delta printed, -1 before any
	changed chan struct{} // closed and replaced whenever lines grows
}

// newClient returns an HTTP client holding at most one connection.
func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
	}}
}

func startDaemon(bin, name, addr string, args []string) (*daemon, error) {
	d := &daemon{
		name:    name,
		api:     "http://" + addr,
		client:  newClient(),
		done:    make(chan struct{}),
		lineage: -1,
		changed: make(chan struct{}),
	}
	d.cmd = exec.Command(bin, args...)
	d.cmd.Stderr = &d.stderr
	out, err := d.cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := d.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	go d.watchRSS()
	go func() {
		defer close(d.done)
		sc := bufio.NewScanner(out)
		sc.Buffer(make([]byte, 1<<16), 64<<20)
		for sc.Scan() {
			l := stamped{at: time.Now(), line: bytes.Clone(sc.Bytes())}
			var rec windowRecord
			if bytes.HasPrefix(l.line, []byte(`{"window":`)) && json.Unmarshal(l.line, &rec) == nil {
				l.win = &rec
			}
			d.mu.Lock()
			d.lines = append(d.lines, l)
			if l.win != nil {
				d.windows++
				if n := len(l.win.Deltas); n > 0 {
					d.lineage = l.win.Deltas[n-1].Lineage
				}
			}
			close(d.changed)
			d.changed = make(chan struct{})
			d.mu.Unlock()
		}
		// Drain whatever a failed scan left, so the process never blocks
		// on a full pipe, then reap it.
		_, _ = io.Copy(io.Discard, out)
		_ = d.cmd.Wait()
	}()
	return d, nil
}

// waitWindows blocks until the daemon has printed at least n window
// results, or the context ends.
func (d *daemon) waitWindows(ctx context.Context, n int) error {
	for {
		d.mu.Lock()
		got := d.windows
		ch := d.changed
		d.mu.Unlock()
		if got >= n {
			return nil
		}
		select {
		case <-ch:
		case <-d.done:
			return fmt.Errorf("%s exited after %d of %d windows: %s", d.name, got, n, d.stderr.String())
		case <-ctx.Done():
			return fmt.Errorf("%s: %d of %d windows: %w", d.name, got, n, ctx.Err())
		}
	}
}

// results returns the window results printed so far.
func (d *daemon) results() []stamped {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]stamped, 0, d.windows)
	for _, l := range d.lines {
		if l.win != nil {
			out = append(out, l)
		}
	}
	return out
}

// latest returns the newest window seq and lineage printed so far, -1
// for none.
func (d *daemon) latest() (seq, lineage int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.windows - 1, d.lineage
}

// healthy polls /healthz until it answers 200.
func (d *daemon) healthy(ctx context.Context) error {
	for {
		resp, err := get(ctx, d.client, d.api+"/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-d.done:
			return fmt.Errorf("%s exited before answering /healthz: %s", d.name, d.stderr.String())
		case <-ctx.Done():
			return fmt.Errorf("%s: /healthz: %w", d.name, ctx.Err())
		case <-time.After(500 * time.Microsecond):
		}
	}
}

// watchRSS samples the process's resident high-water mark (VmHWM) every
// 20ms until it exits. The rusage of a child cannot be used: Linux
// carries the spawning process's peak RSS into ru_maxrss across exec.
func (d *daemon) watchRSS() {
	path := fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid)
	tick := time.NewTicker(20 * time.Millisecond)
	defer tick.Stop()
	for {
		if data, err := os.ReadFile(path); err == nil {
			if kb := vmHWM(data); kb*1024 > d.hwm.Load() {
				d.hwm.Store(kb * 1024)
			}
		}
		select {
		case <-d.done:
			return
		case <-tick.C:
		}
	}
}

// vmHWM extracts the VmHWM line of /proc/<pid>/status, in kB.
func vmHWM(status []byte) int64 {
	for _, line := range bytes.Split(status, []byte{'\n'}) {
		if v, ok := bytes.CutPrefix(line, []byte("VmHWM:")); ok {
			kb, _ := strconv.ParseInt(string(bytes.TrimSuffix(bytes.TrimSpace(v), []byte(" kB"))), 10, 64)
			return kb
		}
	}
	return 0
}

// usage is a finished process's resource use.
type usage struct {
	cpu    time.Duration
	maxRSS int64 // bytes
}

func (d *daemon) usage() usage {
	st := d.cmd.ProcessState
	return usage{cpu: st.UserTime() + st.SystemTime(), maxRSS: d.hwm.Load()}
}

// tailBuffer keeps the last 16 KiB written to it, for error messages.
type tailBuffer struct {
	mu  sync.Mutex
	buf []byte
}

func (t *tailBuffer) Write(p []byte) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.buf = append(t.buf, p...)
	if n := len(t.buf); n > 16<<10 {
		t.buf = append(t.buf[:0], t.buf[n-16<<10:]...)
	}
	return len(p), nil
}

func (t *tailBuffer) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return string(bytes.TrimSpace(t.buf))
}

// get issues a GET that the run's deadline can cut short.
func get(ctx context.Context, c *http.Client, url string) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	return c.Do(req)
}

// freeAddrs picks n distinct free loopback ports. All n stay bound until
// every one is picked, or the kernel could hand out the same port twice.
func freeAddrs(n int) ([]string, error) {
	addrs := make([]string, 0, n)
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		defer ln.Close()
		addrs = append(addrs, ln.Addr().String())
	}
	return addrs, nil
}

// deployment is one workload's set of smashd processes.
type deployment struct {
	all    []*daemon
	root   *daemon   // prints the window results and serves queries
	ingest []*daemon // accept pushed events, one pusher each
	setup  time.Duration
}

// deploy launches the workload's processes, each with a fresh state
// directory under dir, and waits until every one answers /healthz.
// setup is the time from the first launch until the last answer.
func deploy(ctx context.Context, bin, dir string, w *workload) (*deployment, error) {
	n := 1
	if w.tree {
		n = 4
	}
	addrs, err := freeAddrs(n)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	state := func(name string) []string {
		return []string{"-state-dir", filepath.Join(dir, name), "-wal-sync=false"}
	}
	win := []string{"-window", w.size.String(), "-log-level", "warn"}
	if w.stride != w.size {
		win = append(win, "-stride", w.stride.String())
	}
	type proc struct {
		name string
		args []string
	}
	var procs []proc
	if !w.tree {
		args := append(append([]string{}, win...), "-workers", "2", "-json", "-push", "-listen", addrs[0])
		if w.stateDir {
			args = append(args, state("standalone")...)
		}
		procs = append(procs, proc{"standalone", args})
	} else {
		root := append(append([]string{}, win...), "-role", "aggregate", "-workers", "2", "-json",
			"-cluster-listen", addrs[0], "-expect", "1")
		merge := append(append([]string{}, win...), "-role", "merge", "-node", "merge0",
			"-cluster-listen", addrs[1], "-expect", "2", "-forward", "http://"+addrs[0])
		procs = append(procs, proc{"root", append(root, state("root")...)},
			proc{"merge0", append(merge, state("merge0")...)})
		for k := 0; k < 2; k++ {
			name := "ingest" + strconv.Itoa(k)
			ing := append(append([]string{}, win...), "-role", "ingest", "-node", name, "-push",
				"-listen", addrs[2+k], "-forward", "http://"+addrs[1])
			procs = append(procs, proc{name, append(ing, state(name)...)})
		}
	}

	dep := &deployment{}
	t0 := time.Now()
	for i, p := range procs {
		d, err := startDaemon(bin, p.name, addrs[i], p.args)
		if err != nil {
			dep.kill()
			return nil, err
		}
		dep.all = append(dep.all, d)
	}
	hctx, cancel := context.WithTimeout(ctx, 20*time.Second)
	defer cancel()
	for _, d := range dep.all {
		if err := d.healthy(hctx); err != nil {
			dep.kill()
			return nil, err
		}
	}
	dep.setup = time.Since(t0)
	dep.root = dep.all[0]
	if w.tree {
		dep.ingest = dep.all[2:]
	} else {
		dep.ingest = dep.all[:1]
	}
	return dep, nil
}

// finish sends end-of-stream to every ingest endpoint and waits for all
// processes to exit cleanly.
func (dep *deployment) finish(ctx context.Context) error {
	for _, d := range dep.ingest {
		if err := push(ctx, d, nil, true); err != nil {
			dep.kill()
			return err
		}
	}
	return dep.wait(ctx)
}

func (dep *deployment) wait(ctx context.Context) error {
	ctx, cancel := context.WithTimeout(ctx, 60*time.Second)
	defer cancel()
	for _, d := range dep.all {
		select {
		case <-d.done:
		case <-ctx.Done():
			dep.kill()
			return fmt.Errorf("%s did not exit after end of stream", d.name)
		}
	}
	for _, d := range dep.all {
		if !d.cmd.ProcessState.Success() {
			return fmt.Errorf("%s: %v: %s", d.name, d.cmd.ProcessState, d.stderr.String())
		}
	}
	return nil
}

// kill stops every process and waits until each has ended. Processes
// that already exited are left alone.
func (dep *deployment) kill() {
	for _, d := range dep.all {
		select {
		case <-d.done:
		default:
			_ = d.cmd.Process.Kill()
		}
	}
	for _, d := range dep.all {
		<-d.done
	}
}

// usage sums CPU time and max RSS over the exited processes.
func (dep *deployment) usage() usage {
	var u usage
	for _, d := range dep.all {
		du := d.usage()
		u.cpu += du.cpu
		u.maxRSS += du.maxRSS
	}
	return u
}

// push POSTs one batch of combined-log lines to d's /v1/ingest.
func push(ctx context.Context, d *daemon, body []byte, eos bool) error {
	url := d.api + "/v1/ingest"
	if eos {
		url += "?eos=1"
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "text/x-combined-log")
	resp, err := d.client.Do(req)
	if err != nil {
		return fmt.Errorf("push to %s: %w", d.name, err)
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		return fmt.Errorf("push to %s: %s", d.name, resp.Status)
	}
	return nil
}
