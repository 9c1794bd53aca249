package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// server is one `renuver serve` child process and the benchmark's
// single keep-alive connection to it.
type server struct {
	cmd     *exec.Cmd
	url     string
	client  *http.Client
	logDone chan struct{}
}

// startServer boots `renuver serve -artifact` on a loopback port the
// kernel picks, and returns once /healthz answers.
func startServer(bin, artifact string) (*server, error) {
	cmd := exec.Command(bin, "serve", "-metrics-addr", "127.0.0.1:0", "-artifact", artifact)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start server: %w", err)
	}
	s := &server{cmd: cmd, logDone: make(chan struct{})}
	addrCh := make(chan string, 1)
	go func() {
		defer close(s.logDone)
		sc := bufio.NewScanner(stderr)
		sc.Buffer(make([]byte, 64<<10), 1<<20)
		sent := false
		for sc.Scan() {
			if !sent {
				if addr := listenAddr(sc.Text()); addr != "" {
					addrCh <- addr
					sent = true
				}
			}
		}
		// Drain whatever a scan error left, so the child never blocks
		// on a full pipe.
		_, _ = io.Copy(io.Discard, stderr)
		if !sent {
			close(addrCh)
		}
	}()
	var addr string
	select {
	case a, ok := <-addrCh:
		if !ok {
			s.stop()
			return nil, fmt.Errorf("server exited before listening")
		}
		addr = a
	case <-time.After(60 * time.Second):
		s.stop()
		return nil, fmt.Errorf("server did not start listening within 60s")
	}
	s.url = "http://" + addr
	s.client = &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true},
		Timeout:   60 * time.Second,
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := s.client.Get(s.url + "/v1/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		if time.Now().After(deadline) {
			s.stop()
			return nil, fmt.Errorf("server not healthy within 30s")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// listenAddr extracts the bound address from the server's
// "msg=listening addr=host:port" log line.
func listenAddr(line string) string {
	if !strings.Contains(line, "msg=listening") {
		return ""
	}
	for _, f := range strings.Fields(line) {
		if v, ok := strings.CutPrefix(f, "addr="); ok {
			return v
		}
	}
	return ""
}

// stop sends SIGTERM (the server drains and exits 0), waits for the
// process, and returns its peak resident set in MiB.
func (s *server) stop() (peakMB float64, err error) {
	if s.client != nil {
		s.client.CloseIdleConnections()
	}
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	kill := time.AfterFunc(60*time.Second, func() { _ = s.cmd.Process.Kill() })
	defer kill.Stop()
	<-s.logDone
	err = s.cmd.Wait()
	return peakRSSMB(s.cmd), err
}

// rssMB reads the server's current resident set, VmRSS of
// /proc/<pid>/status, in MiB.
func (s *server) rssMB() (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if v, ok := strings.CutPrefix(line, "VmRSS:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmRSS in /proc/%d/status", s.cmd.Process.Pid)
}

// rssEvery is how often watchRSS samples the server's resident set.
const rssEvery = 10 * time.Millisecond

// watchRSS samples the server's resident set every rssEvery until the
// returned function is called, which returns the readings.
func (s *server) watchRSS() func() ([]float64, error) {
	stop := make(chan struct{})
	type readings struct {
		mb  []float64
		err error
	}
	out := make(chan readings, 1)
	go func() {
		tick := time.NewTicker(rssEvery)
		defer tick.Stop()
		var r readings
		for {
			mb, err := s.rssMB()
			if err != nil {
				r.err = err
				out <- r
				return
			}
			r.mb = append(r.mb, mb)
			select {
			case <-stop:
				out <- r
				return
			case <-tick.C:
			}
		}
	}()
	return func() ([]float64, error) {
		close(stop)
		r := <-out
		return r.mb, r.err
	}
}

// peakRSSMB reads a finished child's peak resident set from its rusage.
func peakRSSMB(cmd *exec.Cmd) float64 {
	if cmd.ProcessState == nil {
		return 0
	}
	ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage)
	if !ok {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// post sends one request and reads the whole response; the latency runs
// from just before the request is written to the last body byte.
func (s *server) post(path, ctype string, body []byte) (status int, hdr http.Header, data []byte, lat time.Duration, err error) {
	req, err := http.NewRequest(http.MethodPost, s.url+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, nil, 0, err
	}
	req.Header.Set("Content-Type", ctype)
	start := time.Now()
	resp, err := s.client.Do(req)
	if err != nil {
		return 0, nil, nil, 0, err
	}
	data, err = io.ReadAll(resp.Body)
	resp.Body.Close()
	lat = time.Since(start)
	return resp.StatusCode, resp.Header, data, lat, err
}

// getJSON fetches path and decodes its JSON body into v.
func (s *server) getJSON(path string, v any) error {
	resp, err := s.client.Get(s.url + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// metricsDoc is the JSON form of the program's recorder snapshot, as
// served on /metrics and produced by MetricsRecorder.Snapshot.
type metricsDoc struct {
	Counters map[string]int64    `json:"counters"`
	Phases   map[string]phaseDoc `json:"phases"`
}

type phaseDoc struct {
	NS    int64 `json:"ns"`
	Count int64 `json:"count"`
}

// since returns the counter and phase growth from an earlier snapshot.
func (m metricsDoc) since(prev metricsDoc) metricsDoc {
	out := metricsDoc{Counters: map[string]int64{}, Phases: map[string]phaseDoc{}}
	for k, v := range m.Counters {
		out.Counters[k] = v - prev.Counters[k]
	}
	for k, v := range m.Phases {
		p := prev.Phases[k]
		out.Phases[k] = phaseDoc{NS: v.NS - p.NS, Count: v.Count - p.Count}
	}
	return out
}

// add accumulates another snapshot's counters and phases into m.
func (m *metricsDoc) add(d metricsDoc) {
	if m.Counters == nil {
		m.Counters, m.Phases = map[string]int64{}, map[string]phaseDoc{}
	}
	for k, v := range d.Counters {
		m.Counters[k] += v
	}
	for k, v := range d.Phases {
		p := m.Phases[k]
		m.Phases[k] = phaseDoc{NS: p.NS + v.NS, Count: p.Count + v.Count}
	}
}

// phaseMS is a phase's total in milliseconds.
func (m metricsDoc) phaseMS(name string) float64 { return float64(m.Phases[name].NS) / 1e6 }

// spanNode is one node of a /debug/spans request tree.
type spanNode struct {
	Name       string         `json:"name"`
	TraceID    string         `json:"trace_id"`
	DurationUS float64        `json:"duration_us"`
	Attrs      map[string]any `json:"attrs"`
	Children   []*spanNode    `json:"children"`
}

// walk visits n and its descendants depth first.
func (n *spanNode) walk(f func(*spanNode)) {
	f(n)
	for _, c := range n.Children {
		c.walk(f)
	}
}

// requestSpans fetches the span tree of the request with the given
// trace id. The server finishes a trace before its handler returns, so
// it is normally in the ring when the response arrives; a few retries
// cover a response flushed early.
func (s *server) requestSpans(traceID string) (*spanNode, error) {
	for attempt := 0; attempt < 20; attempt++ {
		var trees []*spanNode
		if err := s.getJSON("/debug/spans?n=4", &trees); err != nil {
			return nil, err
		}
		for _, t := range trees {
			if t.TraceID == traceID {
				return t, nil
			}
		}
		time.Sleep(time.Millisecond)
	}
	return nil, fmt.Errorf("no span tree for trace %s", traceID)
}
