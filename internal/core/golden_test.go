package core

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/des"
)

// goldenConfig is a small but fully featured run: sleeping clients (so the
// awake roster is exercised through doze/wake churn), response snooping and
// coalescing (the O(awake) fan-out paths), and enough horizon for report
// cycles, ARQ and cache pressure to all occur.
func goldenConfig(algo string, seed uint64) Config {
	cfg := DefaultConfig()
	cfg.NumClients = 30
	cfg.Horizon = 600 * des.Second
	cfg.Warmup = 120 * des.Second
	cfg.Seed = seed
	cfg.Algorithm = algo
	cfg.Workload.SleepRatio = 0.4
	cfg.Workload.AwakeMeanSec = 60
	cfg.SnoopResponses = true
	cfg.CoalesceResponses = true
	return cfg
}

// goldenRuns pins the full statistics of six runs, captured before the
// hot-path overhaul (awake roster, frame/report free lists, decode
// memoization, replication arena). Those optimizations must not change what
// the simulator computes — only how fast — so every run must keep
// reproducing these fingerprints byte for byte. If an intentional semantic
// change lands, recapture with fingerprintStats and update. They were last
// recaptured when FSMC.Advance moved from one uniform per fading slot to one
// skip-ahead draw per link touch: the same chain in distribution (pinned by
// the χ² tests in internal/radio), a different random stream.
var goldenRuns = []struct {
	algo string
	seed uint64
	want string
}{
	{"ts", 7, "q=895 ans=859 hit=180 miss=679 d=14.073627813736891 ci=4.2049566393801685 p95=29.027232520630285 max=162.308558 stale=0 drops=65 sig=0 fi=0 rd=567 rl=34 via=[456 0 0] up=746 att=2782 col=586 airIR=0.14745599999999992 airR=29.914889000000166 airBG=209.65504599999997 util=0.49941123125000025 ir=15792 pig=0 rtry=1556 drop=198 e=8175.004245813332 upd=99 pend=36"},
	{"ts", 42, "q=778 ans=748 hit=150 miss=598 d=11.97229872058823 ci=0.7972673897311027 p95=21.948758049625926 max=78.870665 stale=0 drops=62 sig=0 fi=0 rd=512 rl=26 via=[412 0 0] up=624 att=2286 col=525 airIR=0.13363199999999995 airR=19.379135999999928 airBG=194.31364100000104 util=0.4454716854166687 ir=14064 pig=0 rtry=1055 drop=55 e=7595.781834319999 upd=93 pend=30"},
	{"hybrid", 7, "q=856 ans=850 hit=149 miss=701 d=2.94476336470588 ci=1.2203097288994564 p95=19.08587656489211 max=61.900957 stale=0 drops=83 sig=0 fi=0 rd=20464 rl=1231 via=[412 887 10759] up=719 att=983 col=108 airIR=0.25942900000000013 airR=29.067665000000257 airBG=215.36882299999985 util=0.5097831604166669 ir=31376 pig=141232 rtry=1501 drop=207 e=7854.930384957778 upd=99 pend=6"},
	{"hybrid", 42, "q=779 ans=776 hit=154 miss=622 d=2.4845032384020618 ci=0.874012393015872 p95=14.431664699351312 max=58.982586 stale=0 drops=77 sig=0 fi=0 rd=20106 rl=629 via=[438 1005 10817] up=624 att=794 col=66 airIR=0.2657640000000003 airR=19.314546999999887 airBG=202.58184499999965 util=0.46283782499999904 ir=31088 pig=128832 rtry=1162 drop=61 e=7464.928243288889 upd=93 pend=3"},
	{"sig", 7, "q=884 ans=843 hit=210 miss=633 d=13.552531072360622 ci=2.120522281858407 p95=33.381317398724825 max=141.260208 stale=0 drops=0 sig=0 fi=888 rd=556 rl=49 via=[448 0 0] up=699 att=2569 col=567 airIR=1.6435200000000012 airR=30.21794600000017 airBG=211.3083339999987 util=0.5066037499999977 ir=210800 pig=0 rtry=1533 drop=183 e=8138.466141099999 upd=99 pend=41"},
	{"sig", 42, "q=760 ans=737 hit=202 miss=535 d=11.422845461329715 ci=0.724916947909171 p95=21.948758049625926 max=55.129222 stale=0 drops=0 sig=2 fi=802 rd=503 rl=29 via=[402 0 0] up=560 att=1947 col=442 airIR=1.6435200000000012 airR=16.77870099999988 airBG=195.0784030000005 util=0.44479296666666746 ir=210800 pig=0 rtry=1027 drop=45 e=7493.171977522223 upd=93 pend=23"},
}

// fingerprintStats formats every deterministic RunStats field (perf telemetry
// excluded) so any behavioural divergence shows up byte-for-byte.
func fingerprintStats(r *RunStats) string {
	return fmt.Sprintf("q=%d ans=%d hit=%d miss=%d d=%v ci=%v p95=%v max=%v stale=%d drops=%d sig=%d fi=%d rd=%d rl=%d via=%v up=%d att=%d col=%d airIR=%v airR=%v airBG=%v util=%v ir=%d pig=%d rtry=%d drop=%d e=%v upd=%d pend=%d",
		r.Queries, r.Answered, r.CacheHits, r.MissAnswers,
		r.MeanDelay, r.DelayCI95, r.P95Delay, r.MaxDelay,
		r.StaleViolations, r.CacheDrops, r.SigDrops, r.FalseInval,
		r.ReportsDecoded, r.ReportsLost, r.AnsweredVia,
		r.UplinkSent, r.UplinkAttempts, r.UplinkCollisions,
		r.AirtimeIR, r.AirtimeResponse, r.AirtimeBackground, r.DownlinkUtil,
		r.IRBits, r.PiggyBits, r.ResponseRetries, r.ResponseDrops,
		r.EnergyJoules, r.Updates, r.PendingAtEnd)
}

// TestGoldenDeterminism replays the pinned runs cold and compares every
// statistic byte for byte.
func TestGoldenDeterminism(t *testing.T) {
	for _, g := range goldenRuns {
		t.Run(fmt.Sprintf("%s-%d", g.algo, g.seed), func(t *testing.T) {
			r, err := Run(goldenConfig(g.algo, g.seed))
			if err != nil {
				t.Fatal(err)
			}
			if got := fingerprintStats(r); got != g.want {
				t.Errorf("fingerprint diverged\n got: %s\nwant: %s", got, g.want)
			}
		})
	}
}

// TestArenaRecycledRunMatchesCold proves that a simulation built from
// recycled component state — caches, database and channel reclaimed from
// earlier runs with different algorithms and seeds — is bit-identical to a
// cold one: the arena changes where memory comes from, never what runs.
func TestArenaRecycledRunMatchesCold(t *testing.T) {
	ctx := context.Background()
	arena := NewArena()
	// Dirty the arena with runs whose caches, update histories and fading
	// trajectories all differ from the run under test.
	for _, warmup := range []Config{goldenConfig("hybrid", 3), goldenConfig("sig", 11)} {
		warmup.Horizon = 200 * des.Second
		warmup.Warmup = 50 * des.Second
		if _, err := RunRepArena(ctx, warmup, 0, arena); err != nil {
			t.Fatal(err)
		}
	}
	for _, g := range goldenRuns[:2] { // both ts seeds: cheap and roster-heavy
		warm, err := RunRepArena(ctx, goldenConfig(g.algo, g.seed), 0, arena)
		if err != nil {
			t.Fatal(err)
		}
		if got := fingerprintStats(warm); got != g.want {
			t.Errorf("%s-%d: recycled run diverged from cold\n got: %s\nwant: %s",
				g.algo, g.seed, got, g.want)
		}
	}
}
