package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/dcf"
)

// serve_http sizes. A request carries 16 rows of 256 floats (≈ 80 KB of
// JSON), heavy enough that its ≈ 3 ms are the program's, not the
// scheduler's.
const (
	httpDim     = 256
	httpClasses = 16
	httpRows    = 16
	httpBodies  = 64 // distinct pre-encoded requests, cycled
)

var serveHTTP = &workload{
	Name:       "serve_http",
	Unit:       "row",
	UnitsPerOp: httpRows,
	Callers:    httpConns,
	LimitMs:    7,
	Params: map[string]any{
		"binary": "cmd/dcfserve", "args": dcfserveArgs, "rows_per_request": httpRows,
		"bodies_cycled": httpBodies, "batch": 32, "delay": "2ms", "inflight": 2,
	},
	start: startHTTP,
}

// httpConns: two keep-alive connections fill dcfserve's default batch of 32
// rows; never more connections than cores, so the load generator does not
// queue behind itself.
var httpConns = min(2, runtime.NumCPU())

var dcfserveArgs = []string{"-dim", strconv.Itoa(httpDim), "-classes", strconv.Itoa(httpClasses)}

// dcfserveProc is a running cmd/dcfserve child.
type dcfserveProc struct {
	cmd *exec.Cmd
	url string
}

// spawnDcfserve starts the binary on a free loopback port and waits until
// /healthz answers.
func spawnDcfserve(bin string) (*dcfserveProc, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := ln.Addr().String()
	ln.Close() // dcfserve takes a fixed -addr; hand it the port just proven free
	cmd := exec.Command(bin, append([]string{"-addr", addr}, dcfserveArgs...)...)
	// Should the benchmark itself be killed, the child must not outlive it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w (build it with benchmark/run.sh)", bin, err)
	}
	p := &dcfserveProc{cmd: cmd, url: "http://" + addr}
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(p.url + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return p, nil
			}
		}
		if time.Now().After(deadline) {
			p.stop()
			return nil, fmt.Errorf("dcfserve at %s not healthy after 10s: %v", addr, err)
		}
		time.Sleep(time.Millisecond)
	}
}

// stop kills the child and waits until it has ended. A kill rather than
// dcfserve's graceful drain: the drain holds the port a second, and the
// benchmark has no requests in flight by then.
func (p *dcfserveProc) stop() {
	p.cmd.Process.Kill()
	p.cmd.Wait()
}

// cpuSeconds reads the child's user+system CPU time from /proc.
func (p *dcfserveProc) cpuSeconds() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// the 14th and 15th of the whole line.
	rest := string(b[bytes.LastIndexByte(b, ')')+1:])
	f := strings.Fields(rest)
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat line")
	}
	ut, err1 := strconv.ParseFloat(f[11], 64)
	st, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad /proc stat times %q %q", f[11], f[12])
	}
	const userHz = 100 // clock ticks per second as /proc reports them on Linux
	return (ut + st) / userHz, nil
}

// peakRSSMB reads the child's resident-set high-water mark.
func (p *dcfserveProc) peakRSSMB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc status")
}

// httpInputs are the pre-encoded request bodies and their reference answers.
type httpInputs struct {
	bodies [][]byte
	want   [][][]float64
}

func makeHTTPInputs(seed uint64, n int) *httpInputs {
	// The served weights are regenerated with the public initialisers
	// dcfserve's buildModel uses; the forward pass is plain Go.
	w1 := dcf.GlorotUniform(1, httpDim, httpDim).F
	w2 := dcf.GlorotUniform(2, httpDim, httpClasses).F
	b1 := make([]float64, httpDim)
	in := &httpInputs{bodies: make([][]byte, n), want: make([][][]float64, n)}
	for k := range in.bodies {
		x := dcf.RandNormal(seed+uint64(k), 0, 1, httpRows, httpDim).F
		var buf bytes.Buffer
		buf.WriteString(`{"instances":[`)
		for r := 0; r < httpRows; r++ {
			if r > 0 {
				buf.WriteByte(',')
			}
			buf.WriteByte('[')
			for j, v := range x[r*httpDim : (r+1)*httpDim] {
				if j > 0 {
					buf.WriteByte(',')
				}
				buf.Write(strconv.AppendFloat(nil, v, 'g', -1, 64))
			}
			buf.WriteByte(']')
		}
		buf.WriteString("]}")
		in.bodies[k] = buf.Bytes()
		in.want[k] = mlpSoftmaxRef(x, w1, b1, w2, httpRows, httpDim, httpClasses)
	}
	return in
}

// httpLoad drives one dcfserve over keep-alive connections.
type httpLoad struct {
	client *http.Client
	url    string
	in     *httpInputs
}

func newHTTPLoad(url string, conns int, in *httpInputs) *httpLoad {
	return &httpLoad{
		client: &http.Client{
			Transport: &http.Transport{MaxIdleConnsPerHost: conns, MaxConnsPerHost: conns},
			Timeout:   30 * time.Second,
		},
		url: url + "/predict",
		in:  in,
	}
}

// call is one request: post body i, read the whole answer.
func (l *httpLoad) call(_, i int) (any, error) {
	resp, err := l.client.Post(l.url, "application/json", bytes.NewReader(l.in.bodies[i%len(l.in.bodies)]))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("serve_http: status %d: %s", resp.StatusCode, bytes.TrimSpace(b))
	}
	return b, nil
}

func (l *httpLoad) check(i int, res any) error {
	var ans struct {
		Scores [][]float64 `json:"scores"`
	}
	if err := json.Unmarshal(res.([]byte), &ans); err != nil {
		return fmt.Errorf("serve_http: decode answer: %w", err)
	}
	return checkScores(ans.Scores, l.in.want[i%len(l.in.want)])
}

func startHTTP(seed uint64, dcfserve string) (func() (*instance, error), error) {
	in := makeHTTPInputs(seed, httpBodies)
	return func() (*instance, error) {
		p, err := spawnDcfserve(dcfserve)
		if err != nil {
			return nil, err
		}
		l := newHTTPLoad(p.url, httpConns, in)
		inst := &instance{
			call:  l.call,
			check: l.check,
			// No callTraced: the program's step traces are not reachable
			// through /predict, so the traced run profiles an in-process
			// twin of the model instead (see probes.go).
			close: func() {
				l.client.CloseIdleConnections()
				p.stop()
			},
		}
		if err := inst.callChecked(0, 0); err != nil {
			inst.close()
			return nil, fmt.Errorf("serve_http: first request: %w", err)
		}
		return inst, nil
	}, nil
}
