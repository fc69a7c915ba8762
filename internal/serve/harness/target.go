package harness

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"syscall"
	"time"

	"repro/internal/des"
	"repro/internal/serve"
	"repro/internal/serve/capabilities"
	"repro/internal/serve/rest"
)

// Target is one served engine seen from outside: the UDP listener its
// broadcast plane is aimed at, the address of its TCP query plane (dial it
// with Dial, once per client) and an HTTP client for its control plane. The
// same Target drives an in-process serve.Server and a spawned wdcserved
// binary behind the same sockets, so a driver's verdict means the same thing
// in both modes. The control methods are safe for concurrent use.
type Target struct {
	udp     *net.UDPConn
	tcpAddr string
	base    string
	hc      *http.Client
	stop    func() error
}

// spawnTimeout bounds how long a spawned binary gets to print its address
// line, and how long its graceful shutdown may take before SIGKILL.
const spawnTimeout = 15 * time.Second

// Launch brings up a server for rc with its broadcast plane aimed at a fresh
// loopback UDP listener. An empty bin runs an in-process serve.Server with
// its control plane behind httptest; otherwise bin is spawned as a wdcserved
// on ephemeral ports and found through the JSON address line it prints on
// stdout. wallClock picks the engine clock: wall time, or virtual time moved
// only by Advance. ioTimeout is the server's per-operation deadline on query
// connections (zero: serve.DefaultIOTimeout); client-side deadlines are
// Dial's, and deliberately separate.
func Launch(bin string, rc serve.RuntimeConfig, wallClock bool, ioTimeout time.Duration) (*Target, error) {
	udp, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		return nil, err
	}
	t := &Target{udp: udp}
	if bin == "" {
		err = t.startInProcess(rc, wallClock, ioTimeout)
	} else {
		err = t.spawn(bin, rc, wallClock, ioTimeout)
	}
	if err != nil {
		udp.Close()
		return nil, err
	}
	return t, nil
}

func (t *Target) startInProcess(rc serve.RuntimeConfig, wallClock bool, ioTimeout time.Duration) error {
	srv, err := serve.NewServer(serve.Options{
		Runtime:   rc,
		WallClock: wallClock,
		UDPTarget: t.udp.LocalAddr().String(),
		TCPAddr:   "127.0.0.1:0",
		IOTimeout: ioTimeout,
	})
	if err != nil {
		return err
	}
	hs := httptest.NewServer(rest.Handler(srv))
	t.tcpAddr, t.base, t.hc = srv.TCPAddr().String(), hs.URL, hs.Client()
	t.stop = func() error {
		hs.Close()
		srv.Shutdown()
		return nil
	}
	return nil
}

func (t *Target) spawn(bin string, rc serve.RuntimeConfig, wallClock bool, ioTimeout time.Duration) error {
	conf, err := json.Marshal(rc)
	if err != nil {
		return err
	}
	if ioTimeout <= 0 {
		ioTimeout = serve.DefaultIOTimeout
	}
	clock := "virtual"
	if wallClock {
		clock = "wall"
	}
	cmd := exec.Command(bin,
		"-clock", clock,
		"-udp-target", t.udp.LocalAddr().String(),
		"-tcp", "127.0.0.1:0",
		"-http", "127.0.0.1:0",
		"-io-timeout", ioTimeout.String(),
		"-conf-json", string(conf),
	)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return err
	}
	if err := cmd.Start(); err != nil {
		return fmt.Errorf("harness: start %s: %w", bin, err)
	}
	var addrs struct {
		TCP  string `json:"tcp"`
		HTTP string `json:"http"`
	}
	line, err := readAddrLine(stdout)
	if err == nil {
		if jerr := json.Unmarshal([]byte(line), &addrs); jerr != nil || addrs.TCP == "" || addrs.HTTP == "" {
			err = fmt.Errorf("bad address line %q: %v", line, jerr)
		}
	}
	if err != nil {
		_ = cmd.Process.Kill()
		_ = cmd.Wait()
		return fmt.Errorf("harness: %s: %w", bin, err)
	}
	t.tcpAddr, t.base, t.hc = addrs.TCP, "http://"+addrs.HTTP, &http.Client{Timeout: spawnTimeout}
	t.stop = func() error { return terminate(cmd) }
	return nil
}

// readAddrLine waits up to spawnTimeout for the first line of a spawned
// daemon's stdout.
func readAddrLine(stdout io.Reader) (string, error) {
	lineCh := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		if sc.Scan() {
			lineCh <- sc.Text()
		}
		close(lineCh)
	}()
	select {
	case line, ok := <-lineCh:
		if !ok {
			return "", errors.New("exited before printing its address line")
		}
		return line, nil
	case <-time.After(spawnTimeout):
		return "", errors.New("did not print its address line")
	}
}

// terminate sends SIGTERM, the daemon's graceful-drain path, and reaps the
// process, escalating to SIGKILL after spawnTimeout. A daemon that exits
// non-zero or has to be killed is an error: it failed while draining.
func terminate(cmd *exec.Cmd) error {
	_ = cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			return fmt.Errorf("harness: %s on SIGTERM: %w", cmd.Path, err)
		}
		return nil
	case <-time.After(spawnTimeout):
		_ = cmd.Process.Kill()
		<-done
		return fmt.Errorf("harness: %s still running %v after SIGTERM; killed", cmd.Path, spawnTimeout)
	}
}

// Close stops the server (a spawned binary: SIGTERM and wait) and releases
// the broadcast listener. The error reports a spawned daemon that exited
// non-zero or had to be killed.
func (t *Target) Close() error {
	err := t.stop()
	_ = t.udp.Close()
	return err
}

// TCPAddr is the query plane's address.
func (t *Target) TCPAddr() string { return t.tcpAddr }

// UDP is the listener receiving every broadcast datagram (u8 mcs | ir wire
// form). Closing it early stops a reader; Close tolerates that.
func (t *Target) UDP() *net.UDPConn { return t.udp }

// Advance moves a virtual-clock server to the given instant and reports how
// many broadcast datagrams the advance produced.
func (t *Target) Advance(to des.Time) (uint64, error) {
	var out struct {
		Broadcasts uint64 `json:"broadcasts"`
	}
	err := t.post("/v1/advance", struct {
		ToUS int64 `json:"to_us"`
	}{int64(to)}, &out)
	return out.Broadcasts, err
}

// Inject applies one database update; the answer carries the item's
// post-update version and true update time.
func (t *Target) Inject(item int) (capabilities.Answer, error) {
	var ans capabilities.Answer
	err := t.post("/v1/update", struct {
		Item int `json:"item"`
	}{item}, &ans)
	return ans, err
}

// SetSignals pushes the adaptive schemes' environment signals.
func (t *Target) SetSignals(snrs []float64, load float64) error {
	return t.post("/v1/signals", struct {
		SNRs []float64 `json:"snrs"`
		Load float64   `json:"load"`
	}{snrs, load}, nil)
}

// Status snapshots the server, including the actor-queue gauges.
func (t *Target) Status() (serve.Status, error) {
	var st serve.Status
	resp, err := t.hc.Get(t.base + "/v1/status")
	return st, decodeReply("GET /v1/status", resp, err, &st)
}

// post sends one control-plane request and decodes the JSON reply into out.
func (t *Target) post(path string, body, out any) error {
	js, err := json.Marshal(body)
	if err != nil {
		return err
	}
	resp, err := t.hc.Post(t.base+path, "application/json", bytes.NewReader(js))
	return decodeReply("POST "+path, resp, err, out)
}

// decodeReply turns a control-plane round trip into an error or, when out is
// non-nil, a decoded JSON reply.
func decodeReply(req string, resp *http.Response, err error, out any) error {
	if err != nil {
		return fmt.Errorf("harness: %s: %w", req, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("harness: %s: %s: %s", req, resp.Status, data)
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(data, out)
}
