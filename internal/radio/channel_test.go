package radio

import (
	"math"
	"testing"

	"repro/internal/des"
	"repro/internal/mobility"
	"repro/internal/rng"
)

func testChannel(t *testing.T, p Params, n int, seed uint64) *Channel {
	t.Helper()
	c, err := New(p, DefaultAMC(), n, rng.Stream(seed, "chan"))
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestChannelRejectsBadConfig(t *testing.T) {
	src := rng.New(1)
	if _, err := New(DefaultParams(), nil, 0, src); err == nil {
		t.Error("zero clients accepted")
	}
	p := DefaultParams()
	p.FadingStates = 1
	if _, err := New(p, nil, 4, src); err == nil {
		t.Error("bad fading states accepted")
	}
	p = DefaultParams()
	p.DopplerHz = 0
	if _, err := New(p, nil, 4, src); err == nil {
		t.Error("zero doppler accepted")
	}
	bad := &AMC{SymbolRate: 1}
	if _, err := New(DefaultParams(), bad, 4, src); err == nil {
		t.Error("invalid AMC accepted")
	}
}

func TestChannelDeterminism(t *testing.T) {
	mk := func() []float64 {
		c := testChannel(t, DefaultParams(), 16, 77)
		var out []float64
		for i := 0; i < c.N(); i++ {
			for _, at := range []des.Time{0, des.Time(des.Second), des.Time(5 * des.Second)} {
				out = append(out, c.SNRdB(i, at))
			}
		}
		return out
	}
	a, b := mk(), mk()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestChannelMeanSNRMode(t *testing.T) {
	p := DefaultParams()
	p.MeanSNRdB = 20
	p.ShadowSigmaDB = 0 // disable shadowing: every client's mean is exact
	c := testChannel(t, p, 50, 3)
	for i := 0; i < c.N(); i++ {
		if got := c.MeanSNRdB(i); got != 20 {
			t.Fatalf("client %d mean %v", i, got)
		}
		if c.DistanceM(i) != 0 {
			t.Fatal("distance must be zero in SNR mode")
		}
	}
}

func TestChannelGeometryMode(t *testing.T) {
	p := DefaultParams()
	p.UseGeometry = true
	p.ShadowSigmaDB = 0
	c := testChannel(t, p, 200, 4)
	for i := 0; i < c.N(); i++ {
		d := c.DistanceM(i)
		if d < p.MinDistanceM || d > p.CellRadiusM {
			t.Fatalf("client %d at distance %v outside annulus", i, d)
		}
		// Mean SNR must follow the path-loss law exactly with shadowing off.
		pl := p.RefLossDB + 10*p.PathLossExp*math.Log10(d)
		want := p.TxPowerDBm - pl - p.NoiseDBm
		if got := c.MeanSNRdB(i); math.Abs(got-want) > 1e-9 {
			t.Fatalf("client %d mean %v, want %v", i, got, want)
		}
	}
	// Closer clients must have higher mean SNR.
	iNear, iFar := 0, 0
	for i := 1; i < c.N(); i++ {
		if c.DistanceM(i) < c.DistanceM(iNear) {
			iNear = i
		}
		if c.DistanceM(i) > c.DistanceM(iFar) {
			iFar = i
		}
	}
	if !(c.MeanSNRdB(iNear) > c.MeanSNRdB(iFar)) {
		t.Fatal("path loss not monotone in distance")
	}
}

func TestChannelLongRunAverage(t *testing.T) {
	p := DefaultParams()
	p.MeanSNRdB = 15
	p.ShadowSigmaDB = 0
	c := testChannel(t, p, 1, 5)
	// Sample instantaneous SNR over a long horizon; the linear average must
	// approach the configured mean.
	sum := 0.0
	const samples = 20000
	for i := 0; i < samples; i++ {
		at := des.Time(i) * des.Time(20*des.Millisecond)
		sum += FromDB(c.SNRdB(0, at))
	}
	got := ToDB(sum / samples)
	if math.Abs(got-15) > 1.0 {
		t.Fatalf("long-run average SNR %v dB, want ~15", got)
	}
}

func TestChannelSnapshot(t *testing.T) {
	c := testChannel(t, DefaultParams(), 10, 6)
	snap := c.Snapshot(des.Time(des.Second))
	if len(snap) != 10 {
		t.Fatalf("snapshot length %d", len(snap))
	}
	for i, s := range snap {
		if got := c.SNRdB(i, des.Time(des.Second)); got != s {
			t.Fatalf("snapshot[%d]=%v but SNRdB=%v", i, s, got)
		}
	}
}

func TestChannelSelectMCSTracksSNR(t *testing.T) {
	p := DefaultParams()
	p.MeanSNRdB = 30
	p.ShadowSigmaDB = 0
	cHigh := testChannel(t, p, 1, 7)
	p.MeanSNRdB = 0
	cLow := testChannel(t, p, 1, 7)
	high, low := 0, 0
	for i := 0; i < 500; i++ {
		at := des.Time(i) * des.Time(des.Second)
		hi, _ := cHigh.SelectMCS(0, at)
		lo, _ := cLow.SelectMCS(0, at)
		high += hi
		low += lo
	}
	if !(high > low) {
		t.Fatalf("high-SNR client not using faster MCS: %d vs %d", high, low)
	}
}

func TestChannelDecodeProbability(t *testing.T) {
	p := DefaultParams()
	p.ShadowSigmaDB = 0
	p.MeanSNRdB = 25
	c := testChannel(t, p, 1, 8)
	okRobust, okFast := 0, 0
	const trials = 5000
	for i := 0; i < trials; i++ {
		at := des.Time(i) * des.Time(100*des.Millisecond)
		if c.Decode(0, at, 0, 4096) {
			okRobust++
		}
		if c.Decode(0, at, len(c.AMC().Table)-1, 4096) {
			okFast++
		}
	}
	if float64(okRobust)/trials < 0.95 {
		t.Errorf("robust MCS decode rate %v at 25 dB", float64(okRobust)/trials)
	}
	// The fastest scheme needs ~23 dB; at mean 25 dB with Rayleigh fading a
	// noticeable fraction of slots are faded below it.
	if !(okFast < okRobust) {
		t.Errorf("fast MCS should lose more frames: robust=%d fast=%d", okRobust, okFast)
	}
}

func TestChannelLazyAdvanceConsistency(t *testing.T) {
	// Querying the same time twice must not advance the fading process.
	c := testChannel(t, DefaultParams(), 1, 9)
	at := des.Time(3 * des.Second)
	a := c.SNRdB(0, at)
	b := c.SNRdB(0, at)
	if a != b {
		t.Fatalf("repeated query changed state: %v vs %v", a, b)
	}
	// Queries within the same fading slot see the same state.
	c2 := c.SNRdB(0, at.Add(des.Microsecond))
	if a != c2 {
		t.Fatalf("same-slot query changed state: %v vs %v", a, c2)
	}
}

func BenchmarkChannelSNR(b *testing.B) {
	c, err := New(DefaultParams(), DefaultAMC(), 100, rng.New(1))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.SNRdB(i%100, des.Time(i)*des.Time(des.Millisecond))
	}
}

func TestChannelMobility(t *testing.T) {
	p := DefaultParams()
	p.UseGeometry = true
	p.ShadowSigmaDB = 0
	p.Mobility = &mobility.Config{
		CellRadiusM:  p.CellRadiusM,
		MinDistanceM: p.MinDistanceM,
		SpeedMinMps:  10,
		SpeedMaxMps:  20,
		PauseMeanSec: 0,
	}
	c := testChannel(t, p, 10, 11)
	// Mean SNR must drift over time as the clients move.
	drifted := 0
	for i := 0; i < c.N(); i++ {
		m0 := c.MeanSNRdBAt(i, 0)
		m1 := c.MeanSNRdBAt(i, des.Time(5*des.Minute))
		if math.Abs(m1-m0) > 1 {
			drifted++
		}
		// Distance stays within the cell.
		for s := 0; s < 100; s++ {
			d := c.DistanceMAt(i, des.Time(s)*des.Time(3*des.Second))
			if d < p.MinDistanceM || d > p.CellRadiusM {
				t.Fatalf("client %d at distance %v", i, d)
			}
		}
	}
	if drifted < 7 {
		t.Fatalf("only %d of 10 clients drifted", drifted)
	}
	// Instantaneous SNR must track the drifting mean: linear long-run
	// average over a window should sit near the window's mean SNR.
	i := 0
	sum := 0.0
	const samples = 5000
	for s := 0; s < samples; s++ {
		at := des.Time(6*des.Minute) + des.Time(s)*des.Time(4*des.Millisecond)
		sum += FromDB(c.SNRdB(i, at))
	}
	got := ToDB(sum / samples)
	want := c.MeanSNRdBAt(i, des.Time(6*des.Minute)+des.Time(10*des.Second))
	if math.Abs(got-want) > 3 {
		t.Fatalf("windowed SNR average %v dB, mean %v dB", got, want)
	}
}

func TestChannelMobilityRequiresGeometry(t *testing.T) {
	p := DefaultParams()
	p.Mobility = &mobility.Config{CellRadiusM: 100, SpeedMinMps: 1, SpeedMaxMps: 2}
	if _, err := New(p, DefaultAMC(), 4, rng.New(1)); err == nil {
		t.Fatal("mobility without geometry accepted")
	}
}

// TestDecodeMatchesFrameSuccessProb checks the static-mode decode memo
// against the unmemoized definition: for every MCS, fading state and frame
// size, Decode must make the same draw, with the same outcome, as
// Bool(FrameSuccessProb(...)) from a clone of the link's source. Each link
// sits at one mean SNR, from a deep fade up to where the BER underflows to
// zero (p = 1, no draw); the first frame size per slot fills the memo and
// the rest read it.
func TestDecodeMatchesFrameSuccessProb(t *testing.T) {
	means := []float64{-30, -10, 0, 10, 20, 30, 45, 200}
	const underflow = 200 // every MCS and state: BER = 0, L = −0
	// 128 is the MAC's default frame header; 0 means p = 1 with no draw.
	sizes := []int{4096, 0, 1, 128, 12000}
	p := DefaultParams()
	p.ShadowSigmaDB = 0
	c := testChannel(t, p, len(means), 21)
	draws, skips := 0, 0
	for i, mean := range means {
		c.meanDB[i] = mean
		for mcs, m := range c.amc.Table {
			for st := 0; st < p.FadingStates; st++ {
				c.state[i] = int32(st) // time 0 stays in slot 0: no advance
				snr := c.fsmc.RepSNRdB(st) + mean
				for _, bits := range sizes {
					before := c.srcs[i]
					ref := before
					want := ref.Bool(m.FrameSuccessProb(snr, bits))
					got := c.Decode(i, 0, mcs, bits)
					if got != want || c.srcs[i] != ref {
						t.Fatalf("mean %v mcs %d state %d bits %d: Decode %v, Bool(FrameSuccessProb) %v (same source state: %v)",
							mean, mcs, st, bits, got, want, c.srcs[i] == ref)
					}
					if c.srcs[i] == before {
						skips++
					} else {
						draws++
					}
				}
				l := c.lCache[i*c.lStride+mcs*p.FadingStates+st]
				if mean == underflow && (l != 0 || !math.Signbit(l)) {
					t.Fatalf("mcs %d state %d at %v dB: memo holds %v, want −0", mcs, st, mean, l)
				}
			}
		}
	}
	// Both paths must have run: draws in (0, 1) and no-draw p ∈ {0, 1}.
	if draws == 0 || skips == 0 {
		t.Fatalf("draws %d, no-draw decodes %d: a path went unexercised", draws, skips)
	}
}

// TestChannelResetClearsDecodeMemo fills every decode-memo slot of a
// channel at 0 dB, resets it to 30 dB with the same population size (so the
// memo's backing slice is reused), and requires exactly the draws and
// outcomes of a channel built fresh at 30 dB. A memo slot surviving the
// reset would serve a 0 dB log success: at 30 dB the robust MCS decodes
// with p = 1 and no draw, at 0 dB with p < 1 and a draw.
func TestChannelResetClearsDecodeMemo(t *testing.T) {
	const n = 16
	p := DefaultParams()
	p.ShadowSigmaDB = 0
	p.MeanSNRdB = 0
	used := testChannel(t, p, n, 31)
	for i := 0; i < n; i++ {
		for mcs := range used.amc.Table {
			for st := 0; st < p.FadingStates; st++ {
				used.state[i] = int32(st)
				used.Decode(i, 0, mcs, 4096)
			}
		}
	}
	for j, l := range used.lCache {
		if l == lEmpty {
			t.Fatalf("memo slot %d unfilled after use", j)
		}
	}
	p.MeanSNRdB = 30
	if err := used.Reset(p, DefaultAMC(), n, rng.Stream(31, "chan")); err != nil {
		t.Fatal(err)
	}
	fresh := testChannel(t, p, n, 31)
	for k := 0; k < 2000; k++ {
		at := des.Time(k) * des.Time(7*des.Millisecond)
		i, mcs := k%n, k%len(fresh.amc.Table)
		bits := 128 + 64*(k%50)
		if got, want := used.Decode(i, at, mcs, bits), fresh.Decode(i, at, mcs, bits); got != want || used.srcs[i] != fresh.srcs[i] {
			t.Fatalf("decode %d (link %d, mcs %d, %d bits): reset channel %v, fresh %v (same source state: %v)",
				k, i, mcs, bits, got, want, used.srcs[i] == fresh.srcs[i])
		}
	}
}
