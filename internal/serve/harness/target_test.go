package harness

import (
	"fmt"
	"io"
	"net"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/serve"
)

// fakeEnv, set only by the launcher tests, turns a re-executed test binary
// into a stand-in wdcserved playing the named mode.
const fakeEnv = "HARNESS_FAKE_WDCSERVED"

func TestMain(m *testing.M) {
	if mode := os.Getenv(fakeEnv); mode != "" {
		os.Exit(fakeServed(mode))
	}
	os.Exit(m.Run())
}

// fakeServed follows the daemon's spawn protocol as far as its mode says:
// silent exits without an address line, malformed prints a line that is not
// one, graceful and crash print a valid line and wait for SIGTERM, on which
// graceful exits 0 and crash exits 3.
func fakeServed(mode string) int {
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM)
	switch mode {
	case "silent":
		return 0
	case "malformed":
		fmt.Println("listening on 127.0.0.1")
	default:
		fmt.Println(`{"algo":"ts","clock":"wall","tcp":"127.0.0.1:1","http":"127.0.0.1:1"}`)
	}
	<-sig
	if mode == "crash" {
		return 3
	}
	return 0
}

func TestLaunchSpawnProtocol(t *testing.T) {
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		mode      string
		launchErr string // substring of Launch's error; empty: must succeed
		closeErr  string // substring of Close's error; empty: must be nil
	}{
		{mode: "silent", launchErr: "exited before printing its address line"},
		{mode: "malformed", launchErr: "bad address line"},
		{mode: "graceful"},
		{mode: "crash", closeErr: "exit status 3"},
	} {
		t.Run(tc.mode, func(t *testing.T) {
			t.Setenv(fakeEnv, tc.mode)
			tgt, err := Launch(exe, serve.DefaultRuntimeConfig(), true, 0)
			if tc.launchErr != "" {
				if err == nil {
					tgt.Close()
					t.Fatalf("Launch succeeded, want error containing %q", tc.launchErr)
				}
				if !strings.Contains(err.Error(), tc.launchErr) {
					t.Fatalf("Launch error %q, want it to contain %q", err, tc.launchErr)
				}
				return
			}
			if err != nil {
				t.Fatalf("Launch: %v", err)
			}
			if got := tgt.TCPAddr(); got != "127.0.0.1:1" {
				t.Fatalf("TCPAddr %q, want the address line's", got)
			}
			err = tgt.Close()
			switch {
			case tc.closeErr == "" && err != nil:
				t.Fatalf("Close: %v", err)
			case tc.closeErr != "" && (err == nil || !strings.Contains(err.Error(), tc.closeErr)):
				t.Fatalf("Close error %v, want it to contain %q", err, tc.closeErr)
			}
		})
	}
}

// stallServer accepts one connection, reads the two stalled bytes, and then
// either cuts the connection (as a server's IO deadline does) or holds it.
func stallServer(t *testing.T, cut bool) string {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	held := make(chan net.Conn, 1)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		_, _ = io.ReadFull(c, make([]byte, 2))
		if cut {
			c.Close()
			return
		}
		held <- c
	}()
	t.Cleanup(func() {
		ln.Close()
		select {
		case c := <-held:
			c.Close()
		default:
		}
	})
	return ln.Addr().String()
}

func TestStallFrame(t *testing.T) {
	c, err := Dial(stallServer(t, true), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.StallFrame(); err != nil {
		t.Fatalf("server cut the stalled frame, got %v", err)
	}

	c2, err := Dial(stallServer(t, false), 50*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if err := c2.StallFrame(); err == nil || !strings.Contains(err.Error(), "did not cut") {
		t.Fatalf("server held the stalled frame, got %v", err)
	}
}
