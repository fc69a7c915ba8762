package harness

import (
	"errors"
	"fmt"
	"net"
	"time"

	"repro/internal/des"
	"repro/internal/serve"
	"repro/internal/serve/capabilities"
)

// Conn is one client connection to a server's TCP query plane: item queries
// and catch-up exchanges in serve's framing, with OpError turned into a Go
// error. Every exchange runs under one read-and-write deadline, the client's
// own; it is kept apart from the server's IO timeout so that StallFrame
// outwaits the server's cut instead of racing it. A returned digest or
// catch-up report aliases the frame buffer: consume it before the next
// exchange on the same Conn.
type Conn struct {
	addr    string
	timeout time.Duration
	conn    net.Conn
	fr      *serve.FrameReader
}

// Dial connects to the query plane at addr with the given per-exchange
// deadline.
func Dial(addr string, timeout time.Duration) (*Conn, error) {
	c := &Conn{addr: addr, timeout: timeout}
	if err := c.Reconnect(); err != nil {
		return nil, err
	}
	return c, nil
}

// Reconnect (re)dials the query plane, abandoning any previous connection,
// which is what a real client does after the server cuts a stalled exchange.
func (c *Conn) Reconnect() error {
	c.Close()
	conn, err := net.DialTimeout("tcp", c.addr, c.timeout)
	if err != nil {
		return err
	}
	c.conn = conn
	c.fr = serve.NewFrameReader(conn)
	return nil
}

// Close drops the connection.
func (c *Conn) Close() {
	if c.conn != nil {
		_ = c.conn.Close()
	}
}

// Query runs one item query, returning the answer and the piggybacked
// digest when one follows (nil otherwise).
func (c *Conn) Query(item int) (capabilities.Answer, []byte, error) {
	var ans capabilities.Answer
	payload, err := c.exchange(serve.OpQuery, serve.EncodeQuery(item), serve.OpAnswer)
	if err != nil {
		return ans, nil, err
	}
	ans, digestFollows, err := serve.DecodeAnswerFrame(payload)
	if err != nil || !digestFollows {
		return ans, nil, err
	}
	digest, err := c.read(serve.OpReport)
	return ans, digest, err
}

// Catchup requests the update history since the given consistency point and
// returns the unicast report in ir wire form.
func (c *Conn) Catchup(since des.Time) ([]byte, error) {
	return c.exchange(serve.OpCatchup, serve.EncodeCatchup(since), serve.OpReport)
}

// StallFrame writes half a length prefix and then goes silent, waiting for
// the server to cut the connection at its IO deadline: the wire analogue of
// a query that times out in flight. An answer arriving instead, or no cut
// within the client's deadline, is a protocol violation.
func (c *Conn) StallFrame() error {
	_ = c.conn.SetDeadline(time.Now().Add(c.timeout))
	if _, err := c.conn.Write([]byte{0x00, 0x00}); err != nil {
		return err
	}
	_, _, err := c.fr.Read()
	var ne net.Error
	switch {
	case err == nil:
		return fmt.Errorf("harness: server answered a stalled frame")
	case errors.As(err, &ne) && ne.Timeout():
		return fmt.Errorf("harness: server did not cut a stalled frame within %v", c.timeout)
	}
	return nil
}

// exchange sends one request frame under a fresh deadline and reads the
// response, which must carry op want.
func (c *Conn) exchange(op byte, payload []byte, want byte) ([]byte, error) {
	_ = c.conn.SetDeadline(time.Now().Add(c.timeout))
	if err := serve.WriteFrame(c.conn, op, payload); err != nil {
		return nil, err
	}
	return c.read(want)
}

// read reads one response frame carrying op want.
func (c *Conn) read(want byte) ([]byte, error) {
	op, payload, err := c.fr.Read()
	switch {
	case err != nil:
		return nil, err
	case op == serve.OpError:
		return nil, fmt.Errorf("harness: server error: %s", payload)
	case op != want:
		return nil, fmt.Errorf("harness: want op 0x%02x, got 0x%02x", want, op)
	}
	return payload, nil
}
