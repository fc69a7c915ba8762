package serve

import (
	"net"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/des"
	"repro/internal/ir"
)

// TestShutdownFinalReportKeepsClientsConsistent drives the graceful-shutdown
// contract end to end: a client caches answers, the database moves underneath
// it via injected updates it has not yet heard about, and the server shuts
// down. The farewell catch-up datagram must arrive on the broadcast plane and
// must leave the client with zero stale entries across the restart boundary.
func TestShutdownFinalReportKeepsClientsConsistent(t *testing.T) {
	udp, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer udp.Close()

	rc := DefaultRuntimeConfig()
	rc.Algo = "ts"
	rc.Seed = 42
	rc.DB.NumItems = 32
	rc.DB.HotItems = 8
	rc.DB.UpdateRate = 0 // ingest-only: the test controls every update
	rc.IR.NumItems = rc.DB.NumItems
	rc.IR.Interval = 500 * des.Millisecond

	srv, err := NewServer(Options{Runtime: rc, UDPTarget: udp.LocalAddr().String()})
	if err != nil {
		t.Fatal(err)
	}

	var state ir.ClientState
	c := cache.New(8, rc.DB.NumItems)
	readReports := func(n uint64) {
		buf := make([]byte, 1<<16)
		for i := uint64(0); i < n; i++ {
			_ = udp.SetReadDeadline(time.Now().Add(5 * time.Second))
			m, _, err := udp.ReadFromUDP(buf)
			if err != nil {
				t.Fatalf("datagram %d/%d: %v", i+1, n, err)
			}
			var r ir.Report
			if _, err := DecodeDatagram(buf[:m], &r); err != nil {
				t.Fatal(err)
			}
			state.Process(&r, c, nil, nil)
		}
	}

	// Sync the client to the report stream, then cache a few answers at an
	// instant strictly between report times.
	n, err := srv.AdvanceTo(des.Time(0).Add(des.FromSeconds(1.0)))
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("no reports in the first virtual second")
	}
	readReports(n)
	if _, err := srv.AdvanceTo(des.Time(0).Add(des.FromSeconds(1.05))); err != nil {
		t.Fatal(err)
	}
	cached := []int{3, 7, 11}
	for _, item := range cached {
		ans, _, err := srv.Query(item)
		if err != nil {
			t.Fatal(err)
		}
		c.Put(ans.Item, ans.Version, ans.AsOf)
	}

	// Move the database underneath the client: two of its entries go stale
	// with no regular report left to announce it.
	if _, err := srv.AdvanceTo(des.Time(0).Add(des.FromSeconds(1.1))); err != nil {
		t.Fatal(err)
	}
	for _, item := range cached[:2] {
		if _, err := srv.Inject(item); err != nil {
			t.Fatal(err)
		}
	}

	// Graceful shutdown: the farewell catch-up datagram must cover the gap.
	srv.Shutdown()
	readReports(1)

	// The actor is stopped; direct runtime reads are safe now.
	asOf := state.LastConsistent
	stale := 0
	c.Range(func(e cache.Entry) bool {
		it := srv.rt.DBItem(e.ID)
		if it.UpdatedAt <= asOf && e.Version != it.Version {
			stale++
		}
		return true
	})
	if stale != 0 {
		t.Fatalf("%d stale entries survived the shutdown report", stale)
	}
	for _, item := range cached[:2] {
		if c.Contains(item) {
			t.Fatalf("item %d was updated after caching and must be invalidated", item)
		}
	}
	if !c.Contains(cached[2]) {
		t.Fatalf("item %d was never updated and must survive", cached[2])
	}

	// Shutdown is idempotent and post-shutdown ops fail cleanly.
	srv.Shutdown()
	if _, _, err := srv.Query(0); err != ErrStopped {
		t.Fatalf("post-shutdown query: %v, want ErrStopped", err)
	}
}

// TestShutdownDrainsInFlightQueries holds a TCP connection open mid-exchange
// while Shutdown runs: the handler must finish the frame it is serving, the
// final report must still go out, and the listener must refuse new work.
func TestShutdownDrainsInFlightQueries(t *testing.T) {
	udp, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer udp.Close()

	rc := DefaultRuntimeConfig()
	rc.DB.NumItems = 16
	rc.DB.HotItems = 4
	rc.IR.NumItems = rc.DB.NumItems
	srv, err := NewServer(Options{
		Runtime:   rc,
		UDPTarget: udp.LocalAddr().String(),
		TCPAddr:   "127.0.0.1:0",
		IOTimeout: 2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}

	conn, err := net.Dial("tcp", srv.TCPAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := WriteFrame(conn, OpQuery, EncodeQuery(5)); err != nil {
		t.Fatal(err)
	}
	fr := NewFrameReader(conn)
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	op, payload, err := fr.Read()
	if err != nil || op != OpAnswer {
		t.Fatalf("op=0x%02x err=%v", op, err)
	}
	if _, _, err := DecodeAnswerFrame(payload); err != nil {
		t.Fatal(err)
	}

	done := make(chan struct{})
	go func() { srv.Shutdown(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Shutdown hung on an idle connection")
	}

	// The drained connection is closed; the farewell datagram arrived.
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, _, err := fr.Read(); err == nil {
		t.Fatal("connection survived shutdown")
	}
	buf := make([]byte, 1<<16)
	_ = udp.SetReadDeadline(time.Now().Add(5 * time.Second))
	m, _, err := udp.ReadFromUDP(buf)
	if err != nil {
		t.Fatal(err)
	}
	var r ir.Report
	if _, err := DecodeDatagram(buf[:m], &r); err != nil {
		t.Fatal(err)
	}
	if r.Kind != ir.KindFull {
		t.Fatalf("farewell report kind %v, want full", r.Kind)
	}
}

// TestOpStampFollowsReportOnItsMicrosecond: a wall-clock op whose stamp
// lands on the exact microsecond of a report event must run strictly after
// that report, because the report is built first. An update stamped on the
// report's time would be missing from it and from every later report or
// catch-up whose window starts there.
func TestOpStampFollowsReportOnItsMicrosecond(t *testing.T) {
	rc := DefaultRuntimeConfig()
	rc.Algo = "ts"
	rc.DB.UpdateRate = 0 // ingest-only: the test controls every update
	rc.IR.Interval = 500 * des.Millisecond
	var reports []ir.Report
	rt, err := NewRuntime(rc, func(_ int, datagram []byte) {
		var r ir.Report
		if _, err := DecodeDatagram(datagram, &r); err != nil {
			t.Fatal(err)
		}
		reports = append(reports, r)
	})
	if err != nil {
		t.Fatal(err)
	}
	rt.Start()

	at := des.Time(0).Add(rc.IR.Interval)
	stampOp(rt, at)
	if len(reports) == 0 || reports[len(reports)-1].At != at {
		t.Fatalf("no report at %v to tie with: %d reports", at, len(reports))
	}
	const item = 5
	upd, err := rt.Inject(item)
	if err != nil {
		t.Fatal(err)
	}
	if upd.AsOf <= at {
		t.Fatalf("update stamped %v, not after the report at %v", upd.AsOf, at)
	}
	lists := func(r *ir.Report) bool {
		for _, u := range r.Items {
			if u.ID == item && u.At == upd.AsOf {
				return true
			}
		}
		return false
	}
	if cu := rt.Catchup(at); !lists(cu) {
		t.Errorf("catch-up since the report omits the update: %+v", cu.Items)
	}
	stampOp(rt, at.Add(rc.IR.Interval))
	if next := &reports[len(reports)-1]; next.At != at.Add(rc.IR.Interval) || !lists(next) {
		t.Errorf("next report at %v omits the update: %+v", next.At, next.Items)
	}
}
