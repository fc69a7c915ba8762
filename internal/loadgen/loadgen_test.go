package loadgen

import (
	"os"
	"testing"
	"time"

	"repro/internal/ir"
	"repro/internal/obs"
)

// smokeConfig sizes a run small enough that all eight algorithms fit in test
// time on one core, while still exercising every plane: queries, doze
// catch-ups, injections, signals, broadcasts.
func smokeConfig(algo string, clients int) Config {
	cfg := DefaultConfig(algo, clients)
	cfg.Steps = 6
	cfg.Rate = 100
	cfg.DozeMeanSec = 0.15
	cfg.Injects = 20
	cfg.Signals = 4
	cfg.NumItems = 64
	return cfg
}

func TestLoadSmokeAllAlgos(t *testing.T) {
	for _, algo := range ir.Names {
		t.Run(algo, func(t *testing.T) {
			var mon obs.LoadMonitor
			cfg := smokeConfig(algo, 8)
			cfg.Monitor = &mon
			res, err := Run(cfg)
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			if res.Stale != 0 {
				t.Fatalf("stale answers: %d", res.Stale)
			}
			if res.Counts.Queries == 0 {
				t.Fatal("no queries issued")
			}
			if got := res.Latency.Count(); got != uint64(res.Counts.Queries) {
				t.Fatalf("latency sketch holds %d observations, want %d", got, res.Counts.Queries)
			}
			if res.Counts.Injects != int64(cfg.Injects) {
				t.Fatalf("injects %d, want %d", res.Counts.Injects, cfg.Injects)
			}
			if res.Counts.Signals != int64(cfg.Signals) {
				t.Fatalf("signals %d, want %d", res.Counts.Signals, cfg.Signals)
			}
			snap := mon.Snapshot(time.Now())
			if snap.Queries != res.Counts.Queries {
				t.Fatalf("monitor saw %d queries, result has %d", snap.Queries, res.Counts.Queries)
			}
			if snap.ActiveClients != 0 {
				t.Fatalf("%d clients still marked active", snap.ActiveClients)
			}
		})
	}
}

// TestSameSeedCountsIdentical pins the determinism contract: the action-
// stream-derived counts of two same-seed runs match exactly, even though
// latencies, retries and drops are free to differ.
func TestSameSeedCountsIdentical(t *testing.T) {
	cfg := smokeConfig("hybrid", 6)
	a, err := Run(cfg)
	if err != nil {
		t.Fatalf("first run: %v", err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatalf("second run: %v", err)
	}
	if a.Counts != b.Counts {
		t.Fatalf("same-seed counts differ:\n  first  %+v\n  second %+v", a.Counts, b.Counts)
	}
}

// TestSpawnedBinary runs the harness against a spawned wdcserved when
// WDCSERVED_BIN names a built one (make load-smoke sets it): zero stale
// answers across a real process boundary, a clean exit on SIGTERM, and the
// same-seed counts contract of TestSameSeedCountsIdentical.
func TestSpawnedBinary(t *testing.T) {
	bin := os.Getenv("WDCSERVED_BIN")
	if bin == "" {
		t.Skip("WDCSERVED_BIN not set")
	}
	cfg := smokeConfig("hybrid", 6)
	cfg.Bin = bin
	a, err := Run(cfg)
	if err != nil {
		t.Fatalf("first run: %v", err)
	}
	if a.Stale != 0 {
		t.Fatalf("stale answers: %d", a.Stale)
	}
	if a.Counts.Queries == 0 || a.Counts.Injects != int64(cfg.Injects) {
		t.Fatalf("run did not exercise the planes: %+v", a.Counts)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatalf("second run: %v", err)
	}
	if a.Counts != b.Counts {
		t.Fatalf("same-seed counts differ:\n  first  %+v\n  second %+v", a.Counts, b.Counts)
	}
}

func TestConfigValidate(t *testing.T) {
	good := DefaultConfig("ts", 4)
	if err := good.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	for name, mutate := range map[string]func(*Config){
		"clients": func(c *Config) { c.Clients = 0 },
		"steps":   func(c *Config) { c.Steps = 0 },
		"rate":    func(c *Config) { c.Rate = 0 },
		"queue":   func(c *Config) { c.QueueCap = 0 },
		"items":   func(c *Config) { c.NumItems = 0 },
	} {
		cfg := DefaultConfig("ts", 4)
		mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("%s: bad config validated", name)
		}
	}
}
