package main

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"os/exec"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/des"
	"repro/internal/rng"
	"repro/internal/serve"
	"repro/internal/serve/capabilities"
	"repro/internal/serve/harness"
)

// servedSpec describes one served workload: the wdcserved configuration,
// the operation mix, and the benchmark receiver's injected datagram loss.
type servedSpec struct {
	name    string
	runtime serve.RuntimeConfig
	mix     mix
	loss    float64 // per-client datagram loss while the client is live
}

// The served workloads take their fleet, item universe and query skew from
// the simulation's defaults (core.DefaultConfig): 100 logical clients,
// 1,000 items, Zipf(0.8) queries. Each client caches as many items as a
// simulated one.
func defaultMix() mix {
	c := core.DefaultConfig()
	return mix{Clients: c.NumClients, Items: c.DB.NumItems, Zipf: c.Workload.Zipf}
}

// servedReadSpec is hybrid serving reads only: one-second reports and a
// digest allowed on every answer a millisecond after the previous one.
func servedReadSpec(seed uint64) servedSpec {
	rc := serve.DefaultRuntimeConfig()
	rc.Seed = seed
	rc.Algo = "hybrid"
	rc.IR.Interval = des.Second
	rc.IR.PiggyMinGap = des.Millisecond
	return servedSpec{name: "served-read", runtime: rc, mix: defaultMix()}
}

// Where served-write's numbers come from:
//   - the 200 ms report interval is the load harness's (internal/loadgen),
//     chosen there so a few wall seconds exercise the broadcast plane;
//   - updates per query are the simulation's defaults, the database's
//     update rate over the fleet's query rate (0.2/s against 100 clients ×
//     0.1/s: 0.02);
//   - a doze lasts, on average, the report window (WindowReports report
//     intervals, 400 ms), as in the load harness, so a waking client has
//     often missed the reports its catch-up must make up for;
//   - free choices: clients doze half the time, as in city-uplink, and the
//     receiver loses 5% of each live client's datagrams.
func servedWriteSpec(seed uint64) servedSpec {
	rc := serve.DefaultRuntimeConfig()
	rc.Seed = seed
	rc.Algo = "uir"
	rc.IR.Interval = 200 * des.Millisecond
	c := core.DefaultConfig()
	perQuery := c.DB.UpdateRate / (float64(c.NumClients) * c.Workload.QueryRate)
	m := defaultMix()
	m.InjectShare = perQuery / (1 + perQuery)
	m.SleepRatio = 0.5
	m.DozeMeanSec = float64(rc.IR.WindowReports) * rc.IR.Interval.Std().Seconds()
	return servedSpec{name: "served-write", runtime: rc, loss: 0.05, mix: m}
}

func runServedRead(opts options) (outcome, error) {
	return runServed(servedReadSpec(opts.Seed), opts)
}

func runServedWrite(opts options) (outcome, error) {
	return runServed(servedWriteSpec(opts.Seed), opts)
}

// The service-level objective and the harness's own bounds.
var slo = sloRule{
	P99Ms:   10, // p99 query latency from the scheduled send
	DrainMs: 50, // the last answer may trail the last scheduled send by this
}

// Step figures are medians over windows of windowNs of scheduled time, each
// window's percentile over its own samples: the virtual CPUs of a shared
// host stall for milliseconds at a time, and a window the host stalled in
// must not set the whole step's figure. A step needs minWindows windows
// with a supported p99.
const (
	windowNs   = 250 * int64(time.Millisecond)
	minWindows = 3
)

// ioTimeout bounds every socket wait; an operation still unanswered then
// counts as a timeout.
const ioTimeout = 10 * time.Second

// servedMaxFailedRatio bounds a served workload's failed ratio. Nothing is
// in flight when a step ends, so every failure is an error reply, a timeout,
// a broken connection or a stale answer; one in a thousand is already a
// broken run.
const servedMaxFailedRatio = 0.001

// setupSpawns is how many times a run starts wdcserved to time its set-up.
const setupSpawns = 9

// runServed runs a served workload. A traced invocation runs it twice for
// half the time each, untraced then traced, like runDES.
func runServed(spec servedSpec, opts options) (outcome, error) {
	if opts.Wdcserved == "" {
		return outcome{}, fmt.Errorf("no -wdcserved binary")
	}
	// A traced run is two served runs of half the time each, and a step
	// needs minWindows windows to be judged at all.
	perRun := opts.Seconds
	if opts.Trace {
		perRun /= 2
	}
	if _, _, _, _, ramp := stepSeconds(perRun); ramp*1e9 < float64(minWindows*windowNs) {
		return outcome{}, fmt.Errorf("%g s is too short: a served step would span fewer than %d windows of %v",
			opts.Seconds, minWindows, time.Duration(windowNs))
	}
	if !opts.Trace {
		res, err := loadOnce(spec, opts)
		return outcome{Tally: res.tally, MaxFailedRatio: servedMaxFailedRatio,
			Problems: res.problems, Metrics: res.e2e}, err
	}
	half := opts
	half.Seconds = opts.Seconds / 2
	half.Trace = false
	base, err := loadOnce(spec, half)
	if err != nil {
		return outcome{}, err
	}
	half.Trace = true
	res, err := loadOnce(spec, half)
	if err != nil {
		return outcome{}, err
	}
	res.tally.add(base.tally)
	res.layer["load.failed_ratio"] = res.tally.failedRatio()
	return outcome{Tally: res.tally, MaxFailedRatio: servedMaxFailedRatio,
		Problems: append(base.problems, res.problems...),
		Metrics:  tracedMetrics(spec.name, res.layer, res.e2e, base.e2e)}, nil
}

// loadResult is what one served run measured.
type loadResult struct {
	tally    tally
	problems []string
	e2e      map[string]float64
	layer    map[string]float64 // traced runs only
}

// loadOnce is one full served run: set-up, warm-up, the two fixed steps,
// the saturation phase, and (traced) the capacity search and the
// in-process layer replays.
func loadOnce(spec servedSpec, opts options) (out loadResult, err error) {
	conf, err := json.Marshal(spec.runtime)
	if err != nil {
		return out, err
	}
	conns := runtime.NumCPU()
	if conns > 4 {
		conns = 4
	}

	// Set-up: spawn to ready line plus dialled connections, timed several
	// times. The last server stays up for the load; its broadcasts go to the
	// benchmark's receiver on udp.
	meter := startSteal()
	setups, srv, tcp, udp, err := spawnTimed(opts.Wdcserved, conf, conns)
	if err != nil {
		return out, err
	}
	fmt.Fprintf(os.Stderr, "%s: set-ups: %s\n", spec.name, stealNote(meter.share()))
	// The spinners start after the set-ups: spawning a process beside them
	// took 60% longer.
	stopSpinners, err := startSpinners()
	if err != nil {
		closeAll(tcp)
		_, _ = srv.stop()
		udp.Close()
		return out, err
	}
	defer func() {
		if serr := stopSpinners(); serr != nil && err == nil {
			err = serr
		}
	}()
	lr := newLoadRun(spec, srv, tcp, udp, opts)
	res, runErr := lr.drive(opts)
	closeAll(tcp)
	rss, stopErr := srv.stop()
	lr.closeReceiver() // after the server's farewell report
	if runErr != nil {
		return out, runErr
	}
	if stopErr != nil {
		return out, stopErr
	}
	lr.sweepStale()
	if lr.staleEntries > 0 {
		out.problems = append(out.problems, fmt.Sprintf("%d stale cache entries", lr.staleEntries))
	}
	if lr.decodeErrs.Load() > 0 {
		out.problems = append(out.problems, fmt.Sprintf("%d undecodable datagrams", lr.decodeErrs.Load()))
	}
	out.problems = append(out.problems, res.problems...)
	out.tally = lr.tally
	out.e2e = map[string]float64{
		"setup_s":       median(setups),
		"peak_rss_mib":  float64(rss) / 1024,
		"throughput":    res.peak,
		"answer_p50_ms": res.answerP50Ms,
	}
	if opts.Trace {
		out.layer = res.layer
		if err := replayLayers(spec, lr, out.layer); err != nil {
			return out, err
		}
	}
	return out, nil
}

// spawnTimed starts wdcserved setupSpawns times and times each start up to
// its ready line plus conns dialled connections. It keeps the last server
// running, with its connections and the socket its broadcasts go to; the
// earlier ones broadcast into a socket nobody reads and are stopped.
func spawnTimed(bin string, conf []byte, conns int) ([]float64, *server, []net.Conn, *net.UDPConn, error) {
	var setups []float64
	for i := 0; ; i++ {
		sink, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
		if err != nil {
			return nil, nil, nil, nil, err
		}
		t0 := time.Now()
		s, err := spawnServer(bin, conf, sink.LocalAddr().String())
		if err != nil {
			sink.Close()
			return nil, nil, nil, nil, err
		}
		cs, err := dialAll(s.tcp, conns)
		setups = append(setups, time.Since(t0).Seconds())
		if err == nil && i == setupSpawns-1 {
			return setups, s, cs, sink, nil
		}
		closeAll(cs)
		_, stopErr := s.stop()
		sink.Close()
		if err == nil {
			err = stopErr
		}
		if err != nil {
			return nil, nil, nil, nil, err
		}
	}
}

// server is a spawned wdcserved.
type server struct {
	cmd       *exec.Cmd
	tcp, http string
}

// readyWriter takes wdcserved's standard output and hands its first line,
// the ready line, to line; the rest is discarded.
type readyWriter struct {
	buf  []byte
	line chan string // buffered: one send
	sent bool
}

func (w *readyWriter) Write(p []byte) (int, error) {
	if !w.sent {
		w.buf = append(w.buf, p...)
		if i := bytes.IndexByte(w.buf, '\n'); i >= 0 {
			w.line <- string(w.buf[:i])
			w.sent = true
		}
	}
	return len(p), nil
}

// spawnServer starts wdcserved on ephemeral ports in wall-clock mode and
// waits for its ready line.
func spawnServer(bin string, conf []byte, udpTarget string) (*server, error) {
	cmd := exec.Command(bin, "-clock", "wall", "-udp-target", udpTarget,
		"-tcp", "127.0.0.1:0", "-http", "127.0.0.1:0",
		"-io-timeout", ioTimeout.String(), "-conf-json", string(conf))
	out := &readyWriter{line: make(chan string, 1)}
	cmd.Stdout, cmd.Stderr = out, os.Stderr
	cmd.SysProcAttr = childAttr()
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start wdcserved: %w", err)
	}
	var ready struct {
		TCP  string `json:"tcp"`
		HTTP string `json:"http"`
	}
	select {
	case l := <-out.line:
		if json.Unmarshal([]byte(l), &ready) == nil && ready.TCP != "" && ready.HTTP != "" {
			return &server{cmd: cmd, tcp: ready.TCP, http: ready.HTTP}, nil
		}
	case <-time.After(ioTimeout):
	}
	_ = cmd.Process.Kill()
	_ = cmd.Wait()
	return nil, fmt.Errorf("wdcserved printed no ready line")
}

// stop shuts the server down gracefully (SIGTERM, then SIGKILL after the
// I/O timeout) and returns its resident high-water mark in KiB.
func (s *server) stop() (int64, error) {
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	waited := make(chan error, 1)
	go func() { waited <- s.cmd.Wait() }()
	var err error
	select {
	case err = <-waited:
	case <-time.After(ioTimeout):
		_ = s.cmd.Process.Kill()
		<-waited
		return 0, fmt.Errorf("wdcserved ignored SIGTERM")
	}
	// wdcserved installs its signal handler just after printing the ready
	// line, so a SIGTERM sent right then ends it by the default action.
	// That is still a clean stop for the set-up samples.
	if ws, ok := s.cmd.ProcessState.Sys().(syscall.WaitStatus); err != nil &&
		!(ok && ws.Signaled() && ws.Signal() == syscall.SIGTERM) {
		return 0, fmt.Errorf("wdcserved: %w", err)
	}
	ru, ok := s.cmd.ProcessState.SysUsage().(*syscall.Rusage)
	if !ok {
		return 0, fmt.Errorf("wdcserved: no resource usage")
	}
	return ru.Maxrss, nil
}

func dialAll(addr string, n int) ([]net.Conn, error) {
	var cs []net.Conn
	for i := 0; i < n; i++ {
		c, err := net.DialTimeout("tcp", addr, ioTimeout)
		if err != nil {
			closeAll(cs)
			return nil, err
		}
		cs = append(cs, c)
	}
	return cs, nil
}

func closeAll(cs []net.Conn) {
	for _, c := range cs {
		_ = c.Close()
	}
}

// logical is one logical client: a harness.Client plus whether it is
// listening and whether it lost a datagram it must recover from.
type logical struct {
	mu       sync.Mutex
	hc       *harness.Client
	live     bool // awake: listening to broadcasts
	recovery bool // lost a datagram while live; catch up before the next query
}

func (l *logical) setLive(v bool) {
	l.mu.Lock()
	l.live = v
	l.mu.Unlock()
}

// wake makes the client live and returns the point its catch-up starts at.
func (l *logical) wake() des.Time {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.live, l.recovery = true, false
	return l.hc.State.LastConsistent
}

// takeRecovery reports whether a recovery catch-up is owed, and from where.
func (l *logical) takeRecovery() (des.Time, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if !l.recovery {
		return 0, false
	}
	l.recovery = false
	return l.hc.State.LastConsistent, true
}

func (l *logical) processWire(data []byte, t *truth) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	_, err := l.hc.ProcessWire(data, t)
	return err
}

// cacheAnswer caches an answer through the harness's put guard, unless an
// update of the item is in flight. The guard skips a value whose item was
// updated after the answer and no later than the client's consistency
// point: a report already moved past that update and will not list it
// again. While the update's reply is outstanding the truth cannot date it,
// and caching could plant an entry no report invalidates. Skipping a put is
// always safe. The client's lock keeps its consistency point still from
// the check to the put, so an update that begins after the check is dated
// past it and a later report covers it.
func (l *logical) cacheAnswer(ans capabilities.Answer, t *truth) {
	l.mu.Lock()
	if !t.inFlight(ans.Item) {
		l.hc.CacheAnswer(ans, t)
	}
	l.mu.Unlock()
}

// staleEntries counts the client's stale cache entries and describes each
// on standard error.
func (l *logical) staleEntries(t *truth) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := l.hc.StaleEntries(t)
	if n > 0 {
		lc := l.hc.State.LastConsistent
		l.hc.Cache.Range(func(e cache.Entry) bool {
			if ver, at := t.VersionedAt(e.ID); at < lc && e.Version < ver {
				fmt.Fprintf(os.Stderr, "stale: item %d cached at version %d as of %d µs, updated to version %d at %d µs; client consistent to %d µs\n",
					e.ID, e.Version, e.CachedAt, ver, at, lc)
			}
			return true
		})
	}
	return n
}

// truth is the benchmark's ground truth: per item, the latest version and
// update time, learned from update replies and answers. While an update is
// in flight the item's update time reads des.Never, which keeps the
// staleness sweep and the signature path conservative (see harness.Truth);
// logical.cacheAnswer keeps the put guard so.
type truth struct {
	mu      sync.Mutex
	ver     []uint64
	at      []des.Time
	pending []int
}

func newTruth(n int) *truth {
	return &truth{ver: make([]uint64, n), at: make([]des.Time, n), pending: make([]int, n)}
}

// UpdatedAt implements ir.Oracle.
func (t *truth) UpdatedAt(id int) des.Time {
	_, at := t.VersionedAt(id)
	return at
}

// VersionedAt implements harness.Truth.
func (t *truth) VersionedAt(id int) (uint64, des.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.pending[id] > 0 {
		return t.ver[id], des.Never
	}
	return t.ver[id], t.at[id]
}

// version is the latest version any completed update or answer has shown.
func (t *truth) version(id int) uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.ver[id]
}

// inFlight reports whether an update of the item awaits its reply.
func (t *truth) inFlight(id int) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.pending[id] > 0
}

func (t *truth) begin(id int) {
	t.mu.Lock()
	t.pending[id]++
	t.mu.Unlock()
}

// settle ends an update begun with begin: ver and at are its reply's
// version and stamp (zero when it failed). Updates are posted one at a
// time, so the reply dates the item's latest version exactly, replacing
// the upper bound an answer may have set (observe).
func (t *truth) settle(id int, ver uint64, at des.Time) {
	t.mu.Lock()
	if ver > 0 && ver >= t.ver[id] {
		t.ver[id], t.at[id] = ver, at
	}
	t.pending[id]--
	t.mu.Unlock()
}

// observe folds an answer in: a version not seen yet proves an update no
// later than the answer's AsOf.
func (t *truth) observe(ans capabilities.Answer) {
	t.mu.Lock()
	if ans.Version > t.ver[ans.Item] {
		t.ver[ans.Item] = ans.Version
		if ans.AsOf > t.at[ans.Item] {
			t.at[ans.Item] = ans.AsOf
		}
	}
	t.mu.Unlock()
}

// loadRun is the generator side of one served run.
type loadRun struct {
	spec    servedSpec
	srv     *server
	conns   []net.Conn
	readers []*serve.FrameReader
	fleet   []*logical
	truth   *truth
	rest    *http.Client
	zipf    *rng.Zipf
	seed    uint64
	traced  bool

	udp                                             *net.UDPConn
	udpDone                                         sync.WaitGroup
	running                                         atomic.Bool // a step is on: injected loss applies
	lossSrc                                         *rng.Source // owned by the receiver goroutine
	datagrams, lossInjected, recoveries, decodeErrs atomic.Int64
	processNs, processed                            atomic.Int64

	began        time.Time // the receiver's start
	tally        tally
	staleEntries int64
}

// newLoadRun builds the generator and starts the receiver on udp.
func newLoadRun(spec servedSpec, srv *server, conns []net.Conn, udp *net.UDPConn, opts options) *loadRun {
	lr := &loadRun{
		spec: spec, srv: srv, conns: conns, udp: udp, seed: opts.Seed, traced: opts.Trace,
		truth:   newTruth(spec.mix.Items),
		zipf:    rng.NewZipf(spec.mix.Items, spec.mix.Zipf),
		lossSrc: rng.Stream(opts.Seed, "perfbench-loss"),
		rest: &http.Client{Timeout: ioTimeout, Transport: &http.Transport{
			Proxy: nil, MaxIdleConnsPerHost: 4}},
	}
	for _, c := range conns {
		lr.readers = append(lr.readers, serve.NewFrameReader(bufio.NewReaderSize(c, 64<<10)))
	}
	for i := 0; i < spec.mix.Clients; i++ {
		src := rng.Stream(opts.Seed, fmt.Sprintf("perfbench-client-%d", i))
		lr.fleet = append(lr.fleet, &logical{hc: harness.New(core.DefaultConfig().CacheCapacity, spec.mix.Items, src), live: true})
	}
	lr.began = time.Now()
	lr.udpDone.Add(1)
	go lr.receive()
	return lr
}

// receive applies every broadcast datagram to each live logical client.
// During a step, each live client loses each datagram with the spec's
// probability, drawn from the seeded loss stream, and owes a recovery
// catch-up; a dozing client is not listening, so nothing counts for it.
func (lr *loadRun) receive() {
	defer lr.udpDone.Done()
	buf := make([]byte, 1<<16)
	for {
		n, err := lr.udp.Read(buf)
		if err != nil {
			return // socket closed: the run is over
		}
		lr.datagrams.Add(1)
		if n < 1 {
			lr.decodeErrs.Add(1)
			continue
		}
		lossy := lr.spec.loss > 0 && lr.running.Load()
		for i, cl := range lr.fleet {
			if i%32 == 31 {
				// Fan-out to the whole fleet takes about a millisecond; let
				// the pacer, just back from its sleep, take the processor.
				runtime.Gosched()
			}
			cl.mu.Lock()
			if !cl.live {
				cl.mu.Unlock()
				continue
			}
			if lossy && lr.lossSrc.Float64() < lr.spec.loss {
				cl.recovery = true
				cl.mu.Unlock()
				lr.lossInjected.Add(1)
				continue
			}
			t0 := time.Now()
			_, err := cl.hc.ProcessWire(buf[1:n], lr.truth)
			lr.processNs.Add(int64(time.Since(t0)))
			lr.processed.Add(1)
			cl.mu.Unlock()
			if err != nil {
				lr.decodeErrs.Add(1)
			}
		}
	}
}

// closeReceiver stops the receiver once the server has exited.
func (lr *loadRun) closeReceiver() {
	_ = lr.udp.Close()
	lr.udpDone.Wait()
}

// rec is one wire operation of a step: its four span points (ns after the
// step start) and what its answer is checked against.
type rec struct {
	sched, written, read, decoded int64
	kind                          opKind
	client, item                  int32
	minVer                        uint64 // truth version when the query was written
	recovery                      bool   // a loss-driven catch-up, not scheduled
	ok, stale, failed             bool
}

// stepOut is one step's measurements.
type stepOut struct {
	stepResult
	catchupMs  []float64 // scheduled catch-ups, from the scheduled send
	injectRTT  []float64 // REST update round trips, ms
	writeRead  []float64 // traced: written → answer frame read, ms
	decodeUs   []float64 // traced: answer frame read → decoded, µs
	steal      float64   // share of the step's CPU time the host stole
	p50Windows []float64 // each window's median query latency, ms
}

// play runs a timed step and meters the host's steal over it.
func (lr *loadRun) play(st step) stepOut {
	meter := startSteal()
	out := lr.runStep(st)
	out.steal = meter.share()
	return out
}

// runStep plays one step's schedule open-loop: one pacer writes every
// operation once it is due, a reader per connection matches answers in
// order, and another goroutine posts the updates. Latency is timed from
// each operation's scheduled send.
func (lr *loadRun) runStep(st step) stepOut {
	nc := len(lr.conns)
	var wire, injects []op
	counts := make([]int, nc)
	for _, o := range st.Ops {
		switch o.Kind {
		case opInject:
			injects = append(injects, o)
		case opDoze:
			wire = append(wire, o)
		default:
			wire = append(wire, o)
			counts[int(o.Client)%nc]++
		}
	}
	recs := make([][]rec, nc)
	inflight := make([]chan *rec, nc)
	for c := range recs {
		// Each query may be preceded by one recovery catch-up.
		recs[c] = make([]rec, 2*counts[c]+1)
		// Sized to every record the sender can create, so a send never blocks.
		inflight[c] = make(chan *rec, len(recs[c]))
	}
	var used []int // records the sender filled, per connection
	var injRTT []float64
	var injErrs int64
	var wg sync.WaitGroup
	// Collect the garbage of drawing this schedule and of the last step
	// now, not while this one is timed.
	runtime.GC()
	start := time.Now().Add(time.Millisecond)
	lr.running.Store(true)
	wg.Add(1 + nc)
	go func() {
		defer wg.Done()
		used = lr.send(wire, recs, inflight, start)
	}()
	for c := 0; c < nc; c++ {
		go func(c int) {
			defer wg.Done()
			lr.read(c, inflight[c], start, nil)
		}(c)
	}
	if len(injects) > 0 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			injRTT, injErrs = lr.inject(injects, start)
		}()
	}
	wg.Wait()
	lr.running.Store(false)

	out := stepOut{injectRTT: injRTT}
	out.Rate = st.Rate
	var lat, lag []float64
	var latAt, lagAt []int64 // scheduled send of each latency and lag sample
	var t tally
	var lastSched, lastDone int64
	for c := range recs {
		for i := range recs[c][:used[c]] {
			r := &recs[c][i]
			t.Attempted++
			switch {
			case r.ok:
				t.Answered++
			default:
				t.Errors++
			}
			if r.stale {
				t.Stale++
			}
			if r.recovery {
				continue
			}
			lastSched = max(lastSched, r.sched)
			lastDone = max(lastDone, r.decoded)
			lag = append(lag, float64(r.written-r.sched)/1e6)
			lagAt = append(lagAt, r.sched)
			if !r.ok {
				continue
			}
			ms := float64(r.decoded-r.sched) / 1e6
			if r.kind == opQuery {
				lat = append(lat, ms)
				latAt = append(latAt, r.sched)
			} else {
				out.catchupMs = append(out.catchupMs, ms)
			}
			if lr.traced {
				out.writeRead = append(out.writeRead, float64(r.read-r.written)/1e6)
				out.decodeUs = append(out.decodeUs, float64(r.decoded-r.read)/1e3)
			}
		}
	}
	t.Attempted += int64(len(injects))
	t.Answered += int64(len(injects)) - injErrs
	t.Errors += injErrs
	lr.tally.add(t)
	out.Answers = len(lat)
	var windows int
	out.p50Windows = windowQuantiles(latAt, lat, windowNs, 0.50)
	out.P50Ms = median(out.p50Windows)
	out.P90Ms, _ = windowedQuantile(latAt, lat, windowNs, 0.90)
	out.P99Ms, windows = windowedQuantile(latAt, lat, windowNs, 0.99)
	out.LagP99Ms, _ = windowedQuantile(lagAt, lag, windowNs, 0.99)
	// A failed query counts as missing any limit.
	out.P99OK = windows >= minWindows && t.Errors+t.Stale == 0
	out.Failed = t.failedRatio()
	out.DrainMs = float64(lastDone-lastSched) / 1e6
	for _, cl := range lr.fleet {
		cl.setLive(true)
	}
	lr.sweepStale()
	return out
}

// sweepStale checks every logical client's cache against the truth and
// keeps the largest count of stale entries any sweep found.
func (lr *loadRun) sweepStale() {
	n := 0
	for _, cl := range lr.fleet {
		n += cl.staleEntries(lr.truth)
	}
	lr.staleEntries = max(lr.staleEntries, int64(n))
}

// send writes every connection's operations as they fall due: whatever
// is due goes out in one write per connection. One goroutine paces all
// connections, so at most one thread sleeps in nanosleep while holding a
// scheduler slot; the readers and the receiver keep the others. It returns
// how many records it filled per connection, and closes the queues.
func (lr *loadRun) send(ops []op, recs [][]rec, inflight []chan *rec, start time.Time) []int {
	nc := len(lr.conns)
	n := make([]int, nc)
	first := make([]int, nc)
	bufs := make([][]byte, nc)
	broken := make([]bool, nc)
	defer func() {
		for _, ch := range inflight {
			close(ch)
		}
	}()
	for i := 0; i < len(ops); {
		now := int64(time.Since(start))
		if ops[i].At > now {
			sleepNs(ops[i].At - now)
			continue
		}
		for c := range bufs {
			bufs[c], first[c] = bufs[c][:0], n[c]
		}
		for ; i < len(ops) && ops[i].At <= now; i++ {
			o := ops[i]
			cl := lr.fleet[o.Client]
			c := int(o.Client) % nc
			switch o.Kind {
			case opDoze:
				cl.setLive(false)
			case opCatchup:
				since := cl.wake()
				bufs[c] = appendFrame(bufs[c], serve.OpCatchup, uint64(since), 8)
				recs[c][n[c]] = rec{sched: o.At, kind: opCatchup, client: o.Client}
				n[c]++
			case opQuery:
				if since, owed := cl.takeRecovery(); owed {
					bufs[c] = appendFrame(bufs[c], serve.OpCatchup, uint64(since), 8)
					recs[c][n[c]] = rec{sched: now, kind: opCatchup, client: o.Client, recovery: true}
					n[c]++
					lr.recoveries.Add(1)
				}
				bufs[c] = appendFrame(bufs[c], serve.OpQuery, uint64(o.Item), 4)
				recs[c][n[c]] = rec{sched: o.At, kind: opQuery, client: o.Client, item: o.Item,
					minVer: lr.truth.version(int(o.Item))}
				n[c]++
			}
		}
		for c, buf := range bufs {
			if broken[c] {
				for j := first[c]; j < n[c]; j++ {
					recs[c][j].failed = true
				}
				continue
			}
			for j := first[c]; j < n[c]; j++ {
				inflight[c] <- &recs[c][j]
			}
			if len(buf) == 0 {
				continue
			}
			_ = lr.conns[c].SetWriteDeadline(time.Now().Add(ioTimeout))
			_, err := lr.conns[c].Write(buf)
			w := int64(time.Since(start))
			for j := first[c]; j < n[c]; j++ {
				recs[c][j].written = w
			}
			broken[c] = err != nil
		}
	}
	return n
}

// sleepNs blocks the calling thread in nanosleep(2). A Go timer sleeps at
// least a millisecond whenever the process is otherwise idle (the runtime
// waits in epoll with millisecond resolution), which would show up as
// generator lag at light load; the kernel timer wakes within its slack.
func sleepNs(d int64) {
	ts := syscall.NsecToTimespec(d)
	_ = syscall.Nanosleep(&ts, nil) // an early wake-up only re-checks the schedule
}

// appendFrame appends one request frame with a big-endian integer payload
// of size 4 or 8 bytes.
func appendFrame(buf []byte, opc byte, v uint64, size int) []byte {
	buf = binary.BigEndian.AppendUint32(buf, uint32(1+size))
	buf = append(buf, opc)
	if size == 4 {
		return binary.BigEndian.AppendUint32(buf, uint32(v))
	}
	return binary.BigEndian.AppendUint64(buf, v)
}

// satDepth is how many queries each connection keeps outstanding while
// saturating: enough that the server never waits for the generator.
const satDepth = 64

// saturate measures peak throughput. Each connection keeps satDepth queries
// outstanding for sec seconds, writing one more as each answer is read: a
// pipelined closed loop, so the server runs flat out and the backlog stays
// bounded. Queries draw Zipf items from the seed's own stream, and every
// answer is checked like any other. The figure is the median, over the
// windows strictly inside the phase, of answers decoded per second.
func (lr *loadRun) saturate(sec float64) float64 {
	nc := len(lr.conns)
	runtime.GC()
	start := time.Now()
	end := int64(sec * 1e9)
	sent := make([][][]rec, nc) // per connection, chunks of records
	var wg sync.WaitGroup
	wg.Add(2 * nc)
	for c := 0; c < nc; c++ {
		inflight := make(chan *rec, satDepth)
		done := make(chan struct{}, satDepth)
		go func(c int) {
			defer wg.Done()
			lr.read(c, inflight, start, done)
		}(c)
		go func(c int) {
			defer wg.Done()
			defer close(inflight)
			src := rng.Stream(lr.seed, fmt.Sprintf("perfbench-saturate-%d", c))
			// A client's queries all go on its own connection, as in the
			// open loop, so its answers arrive in order.
			client := c
			var chunk []rec // appended within capacity only: queued pointers stay valid
			var buf []byte
			for outstanding := 0; int64(time.Since(start)) < end; {
				if cap(chunk)-len(chunk) < satDepth {
					sent[c] = append(sent[c], chunk)
					chunk = make([]rec, 0, 4096)
				}
				from := len(chunk)
				buf = buf[:0]
				for ; outstanding < satDepth; outstanding++ {
					item := int32(lr.zipf.Sample(src))
					buf = appendFrame(buf, serve.OpQuery, uint64(item), 4)
					chunk = append(chunk, rec{sched: int64(time.Since(start)), kind: opQuery,
						client: int32(client), item: item, minVer: lr.truth.version(int(item))})
					if client += nc; client >= len(lr.fleet) {
						client = c
					}
				}
				for i := from; i < len(chunk); i++ {
					inflight <- &chunk[i]
				}
				_ = lr.conns[c].SetWriteDeadline(time.Now().Add(ioTimeout))
				_, err := lr.conns[c].Write(buf)
				w := int64(time.Since(start))
				for i := from; i < len(chunk); i++ {
					chunk[i].written = w
				}
				if err != nil {
					break // the reader fails what is still queued
				}
				// Wait for one answer, then take every other that is in.
				<-done
				outstanding--
				for more := true; more; {
					select {
					case <-done:
						outstanding--
					default:
						more = false
					}
				}
			}
			// done holds satDepth signals, at least as many as are still
			// owed, so the reader never blocks on it.
			sent[c] = append(sent[c], chunk)
		}(c)
	}
	wg.Wait()
	var t tally
	var decoded []int64
	for _, chunks := range sent {
		for _, chunk := range chunks {
			for i := range chunk {
				r := &chunk[i]
				t.Attempted++
				if r.ok {
					t.Answered++
					decoded = append(decoded, r.decoded)
				} else {
					t.Errors++
				}
				if r.stale {
					t.Stale++
				}
			}
		}
	}
	lr.tally.add(t)
	lr.sweepStale()
	return windowRate(decoded, windowNs)
}

// read matches connection c's answers, in order, to the records the sender
// queued, checks each, and stamps its span points. With done, it signals
// there once per record it is through with.
func (lr *loadRun) read(c int, inflight <-chan *rec, start time.Time, done chan<- struct{}) {
	broken := false
	for r := range inflight {
		if broken {
			r.failed = true
		} else {
			broken = !lr.readOne(c, r, start)
			r.failed = broken
		}
		if done != nil {
			done <- struct{}{}
		}
	}
}

// readOne reads and checks the answer to r. It reports false when the
// stream can no longer be matched to the queue.
func (lr *loadRun) readOne(c int, r *rec, start time.Time) bool {
	conn, fr := lr.conns[c], lr.readers[c]
	_ = conn.SetReadDeadline(time.Now().Add(ioTimeout))
	opc, payload, err := fr.Read()
	if err != nil {
		return false
	}
	r.read = int64(time.Since(start))
	cl := lr.fleet[r.client]
	switch {
	case r.kind == opQuery && opc == serve.OpAnswer:
		ans, digest, err := serve.DecodeAnswerFrame(payload)
		if err == nil && digest {
			var dop byte
			dop, payload, err = fr.Read()
			if err == nil && dop != serve.OpReport {
				err = fmt.Errorf("digest flag set but op 0x%02x followed", dop)
			}
			if err == nil {
				err = cl.processWire(payload, lr.truth)
			}
		}
		if err != nil || ans.Item != int(r.item) {
			return false
		}
		r.stale = ans.Version < r.minVer
		cl.cacheAnswer(ans, lr.truth)
		lr.truth.observe(ans)
	case r.kind == opCatchup && opc == serve.OpReport:
		if err := cl.processWire(payload, lr.truth); err != nil {
			return false
		}
	default:
		// An error frame or a protocol mix-up.
		return false
	}
	r.decoded = int64(time.Since(start))
	r.ok = true
	return true
}

// inject posts the step's updates on the REST plane as they fall due,
// returning the round trips (ms) and the number that failed.
func (lr *loadRun) inject(ops []op, start time.Time) (rtt []float64, errs int64) {
	for _, o := range ops {
		if d := o.At - int64(time.Since(start)); d > 0 {
			time.Sleep(time.Duration(d)) // updates are not latency-timed
		}
		sent := int64(time.Since(start))
		item := int(o.Item)
		lr.truth.begin(item)
		ans, err := lr.postUpdate(item)
		if err != nil {
			lr.truth.settle(item, 0, 0)
			errs++
			continue
		}
		lr.truth.settle(item, ans.Version, ans.AsOf)
		rtt = append(rtt, float64(int64(time.Since(start))-sent)/1e6)
	}
	return rtt, errs
}

// postUpdate applies one update through POST /v1/update.
func (lr *loadRun) postUpdate(item int) (capabilities.Answer, error) {
	var ans capabilities.Answer
	body := fmt.Sprintf(`{"item":%d}`, item)
	resp, err := lr.rest.Post("http://"+lr.srv.http+"/v1/update", "application/json", bytes.NewBufferString(body))
	if err != nil {
		return ans, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return ans, err
	}
	if resp.StatusCode != http.StatusOK {
		return ans, fmt.Errorf("POST /v1/update: %s: %s", resp.Status, data)
	}
	return ans, json.Unmarshal(data, &ans)
}

// status reads the server's /v1/status.
func (lr *loadRun) status() (serve.Status, error) {
	var st serve.Status
	resp, err := lr.rest.Get("http://" + lr.srv.http + "/v1/status")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("GET /v1/status: %s", resp.Status)
	}
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

// driveResult is what a served run measured.
type driveResult struct {
	answerP50Ms float64
	knee        float64 // max_qps_at_slo
	peak        float64 // answers per second, saturated
	layer       map[string]float64
	problems    []string
}

// drive runs the warm-up, the fixed steps, the saturation phase and, in a
// traced run, the capacity search.
func (lr *loadRun) drive(opts options) (driveResult, error) {
	var res driveResult
	warmSec, lightSec, loadedSec, satSec, rampSec := stepSeconds(opts.Seconds)
	m := lr.spec.mix
	draw := func(rate, sec float64) step { return drawStep(opts.Seed, m, lr.zipf, rate, sec) }

	warm := draw(rateLight, warmSec)
	light := draw(rateLight, lightSec)
	loaded := draw(rateLoaded, loadedSec)
	fmt.Fprintf(os.Stderr, "%s: schedule %s (%d+%d ops in the fixed steps)\n", lr.spec.name,
		fingerprint(light, loaded), len(light.Ops), len(loaded.Ops))

	lr.runStep(warm)
	lightOut := lr.play(light)
	var prof []byte
	var profErr error
	var profWG sync.WaitGroup
	if lr.traced {
		profWG.Add(1)
		go func() {
			defer profWG.Done()
			prof, profErr = lr.serverProfile(int(math.Max(1, math.Floor(loadedSec-0.5))))
		}()
	}
	loadedOut := lr.play(loaded)
	profWG.Wait()
	logStep(lr.spec.name, lightOut)
	logStep(lr.spec.name, loadedOut)

	// The capacity search is a per-layer figure: its steps are judged on a
	// cliff, so it follows the host more than the saturated rate does.
	if lr.traced {
		ramp := geometric(rateLoaded, rampRatio, rampSteps)
		best, limited := searchKnee([]stepResult{lightOut.stepResult, loadedOut.stepResult},
			ramp, refineSteps, slo, func(rate float64) stepResult {
				s := lr.play(draw(rate, rampSec))
				logStep(lr.spec.name, s)
				return s.stepResult
			})
		res.knee = best
		fmt.Fprintf(os.Stderr, "%s: max_qps_at_slo %.0f (p99 <= %g ms)", lr.spec.name, best, slo.P99Ms)
		switch {
		case best == 0:
			fmt.Fprint(os.Stderr, "; neither fixed step was sustained")
		case limited:
			fmt.Fprint(os.Stderr, "; a step counted only with the generator's lag taken out")
		}
		fmt.Fprintln(os.Stderr)
	}

	// With the spinners, every vCPU is busy through the saturation phase,
	// so the steal share is the part of the time the host took: the peak
	// counts the rest, as the DES throughput does.
	meter := startSteal()
	raw := lr.saturate(satSec)
	steal := meter.share()
	res.peak = raw / (1 - steal)
	fmt.Fprintf(os.Stderr, "%s: peak throughput %.0f ops/s, %.0f per raw wall second (%d queries outstanding per connection), %s\n",
		lr.spec.name, res.peak, raw, satDepth, stealNote(steal))

	// The light step's second half, the same schedule played again at the
	// end of the run. The answer median is the lowest tenth of both halves'
	// window medians: stalls of the host only add latency, and a host that
	// stalls through most of the run must not set it.
	lightAgain := lr.play(light)
	logStep(lr.spec.name, lightAgain)
	res.answerP50Ms, _ = percentile(sortedCopy(append(lightOut.p50Windows, lightAgain.p50Windows...)), 0.10)
	if !lr.traced {
		return res, nil
	}

	layer := map[string]float64{}
	if profErr != nil {
		return res, profErr
	}
	cpu := map[string]float64{}
	if err := addProfile(prof, cpu); err != nil {
		return res, err
	}
	cpuShares(cpu, layer)
	st, err := lr.status()
	if err != nil {
		return res, err
	}
	layer["actor.queue_max"] = float64(st.QueueMax)
	layer["load.max_qps_at_slo"] = res.knee
	layer["load.p90_ms_10k"] = lightOut.P90Ms
	layer["load.p99_ms_10k"] = lightOut.P99Ms
	layer["load.p50_ms_40k"] = loadedOut.P50Ms
	layer["load.p99_ms_40k"] = loadedOut.P99Ms
	layer["generator.lag_p99_ms"] = loadedOut.LagP99Ms
	layer["span.write_to_read_p50_ms"] = reportPercentile("written to answer read", loadedOut.writeRead, 0.5)
	layer["span.decode_p50_us"] = reportPercentile("answer read to decoded", loadedOut.decodeUs, 0.5)
	if lr.spec.mix.SleepRatio > 0 {
		layer["load.catchup_p99_ms"] = reportPercentile("catch-up latency at 10k", lightOut.catchupMs, 0.99)
	}
	if lr.spec.mix.InjectShare > 0 {
		layer["rest.inject_rtt_p50_ms"] = reportPercentile("REST update round trip",
			append(lightOut.injectRTT, loadedOut.injectRTT...), 0.5)
	}
	if lr.spec.loss > 0 {
		layer["udp.loss_injected"] = float64(lr.lossInjected.Load())
		layer["udp.recovery_catchups"] = float64(lr.recoveries.Load())
	}
	layer["udp.datagrams_per_s"] = float64(lr.datagrams.Load()) / time.Since(lr.began).Seconds()
	if n := lr.processed.Load(); n > 0 {
		layer["harness.process_wire_ns"] = float64(lr.processNs.Load()) / float64(n)
	}
	rtt, err := lr.rttProbe(2000)
	if err != nil {
		return res, err
	}
	layer["wire.rtt_p50_us"] = rtt
	res.layer = layer
	return res, nil
}

// reportPercentile returns the q-quantile of xs, naming on standard error
// the sample count and whether minBeyond samples lie beyond it.
func reportPercentile(what string, xs []float64, q float64) float64 {
	v, ok := percentile(sortedCopy(xs), q)
	if len(xs) == 0 {
		v = 0
	}
	note := ""
	if !ok {
		note = fmt.Sprintf(" (fewer than %d samples beyond)", minBeyond)
	}
	fmt.Fprintf(os.Stderr, "  %s p%g %.4g over %d samples%s\n", what, q*100, v, len(xs), note)
	return v
}

// logStep prints one step's figures.
func logStep(name string, s stepOut) {
	fmt.Fprintf(os.Stderr, "%s: step %7.0f ops/s  answers %7d  p50 %.3f ms  p99 %.3f ms  failed %.3g  drain %.2f ms  lag p99 %.3f ms  %s\n",
		name, s.Rate, s.Answers, s.P50Ms, s.P99Ms, s.Failed, s.DrainMs, s.LagP99Ms, stealNote(s.steal))
}

// serverProfile fetches a CPU profile of the server over its control plane.
func (lr *loadRun) serverProfile(seconds int) ([]byte, error) {
	c := &http.Client{Timeout: time.Duration(seconds)*time.Second + ioTimeout}
	resp, err := c.Get(fmt.Sprintf("http://%s/debug/pprof/profile?seconds=%d", lr.srv.http, seconds))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("server profile: %s", resp.Status)
	}
	return io.ReadAll(resp.Body)
}

// rttProbe runs n closed-loop queries on a fresh connection to the idle
// server and returns the median round trip in µs.
func (lr *loadRun) rttProbe(n int) (float64, error) {
	conn, err := net.DialTimeout("tcp", lr.srv.tcp, ioTimeout)
	if err != nil {
		return 0, err
	}
	defer conn.Close()
	fr := serve.NewFrameReader(bufio.NewReader(conn))
	src := rng.Stream(lr.seed, "perfbench-rtt")
	rtts := make([]float64, 0, n)
	var frame []byte
	for i := 0; i < n; i++ {
		frame = appendFrame(frame[:0], serve.OpQuery, uint64(lr.zipf.Sample(src)), 4)
		_ = conn.SetDeadline(time.Now().Add(ioTimeout))
		t0 := time.Now()
		if _, err := conn.Write(frame); err != nil {
			return 0, err
		}
		opc, payload, err := fr.Read()
		if err != nil {
			return 0, err
		}
		if opc != serve.OpAnswer {
			return 0, fmt.Errorf("rtt probe: op 0x%02x", opc)
		}
		_, digest, err := serve.DecodeAnswerFrame(payload)
		if err == nil && digest {
			_, _, err = fr.Read()
		}
		if err != nil {
			return 0, err
		}
		rtts = append(rtts, float64(time.Since(t0))/1e3)
	}
	return median(rtts), nil
}
