package main

import (
	"bytes"
	"fmt"
	"time"

	"repro/internal/des"
	"repro/internal/serve"
	"repro/internal/serve/capabilities"
)

// The traced served run splits the server's per-query cost by replaying
// the loaded step's operations in process: against a bare serve.Runtime
// (the engine), then through a socketless serve.Server (the engine plus the
// actor hop), and by timing the frame codec on its own.

// replayLayers adds the engine, actor and wire figures to m.
func replayLayers(spec servedSpec, lr *loadRun, m map[string]float64) error {
	st := drawStep(lr.seed, spec.mix, lr.zipf, rateLoaded, 1)
	over := clockOverhead()
	eng, err := replayEngine(spec.runtime, st, over)
	if err != nil {
		return err
	}
	for k, v := range eng {
		m[k] = v
	}
	hop, err := replayActor(spec.runtime, st, over)
	if err != nil {
		return err
	}
	m["actor.hop_ns"] = hop - eng["engine.query_ns"]
	m["wire.encode_ns"], m["wire.decode_ns"] = codecCost(st)
	m["wire.rtt_p50_us"] -= hop / 1e3 // the server's in-process time
	return nil
}

// clockOverhead is the cost of the two clock reads around a timed call,
// subtracted from every per-call timing.
func clockOverhead() float64 {
	const n = 20000
	var total time.Duration
	for i := 0; i < n; i++ {
		t0 := time.Now()
		total += time.Since(t0)
	}
	return float64(total) / n
}

// replayEngine replays st against a bare runtime on a virtual clock that
// follows the schedule, timing each query, catch-up and update.
func replayEngine(rc serve.RuntimeConfig, st step, over float64) (map[string]float64, error) {
	rt, err := serve.NewRuntime(rc, nil)
	if err != nil {
		return nil, err
	}
	rt.Start()
	dozeAt := map[int32]des.Time{}
	var qNs, cNs, iNs float64
	var q, c, in, digestBytes, catchupBytes int
	for _, o := range st.Ops {
		if t := des.Time(o.At / 1000); t > rt.Now() {
			if _, err := rt.AdvanceTo(t); err != nil {
				return nil, err
			}
		}
		switch o.Kind {
		case opQuery:
			t0 := time.Now()
			_, digest, err := rt.Query(int(o.Item))
			qNs += float64(time.Since(t0)) - over
			if err != nil {
				return nil, err
			}
			q++
			digestBytes += len(digest)
		case opDoze:
			dozeAt[o.Client] = rt.Now()
		case opCatchup:
			t0 := time.Now()
			b := rt.Catchup(dozeAt[o.Client]).Marshal()
			cNs += float64(time.Since(t0)) - over
			c++
			catchupBytes += len(b)
		case opInject:
			t0 := time.Now()
			_, err := rt.Inject(int(o.Item))
			iNs += float64(time.Since(t0)) - over
			if err != nil {
				return nil, err
			}
			in++
		}
	}
	per := func(total float64, n int) float64 {
		if n == 0 {
			return 0
		}
		return total / float64(n)
	}
	return map[string]float64{
		"engine.query_ns":      per(qNs, q),
		"engine.digest_bytes":  per(float64(digestBytes), q),
		"engine.catchup_ns":    per(cNs, c),
		"engine.catchup_bytes": per(float64(catchupBytes), c),
		"engine.inject_ns":     per(iNs, in),
	}, nil
}

// replayActor replays st's queries through a socketless server, so each
// goes through the actor mailbox, and returns the mean ns per query.
func replayActor(rc serve.RuntimeConfig, st step, over float64) (float64, error) {
	srv, err := serve.NewServer(serve.Options{Runtime: rc})
	if err != nil {
		return 0, err
	}
	defer srv.Shutdown()
	var total float64
	var n int
	var now des.Time
	for _, o := range st.Ops {
		if t := des.Time(o.At / 1000); t > now {
			if _, err := srv.AdvanceTo(t); err != nil {
				return 0, err
			}
			now = t
		}
		switch o.Kind {
		case opQuery:
			t0 := time.Now()
			_, _, err := srv.Query(int(o.Item))
			total += float64(time.Since(t0)) - over
			if err != nil {
				return 0, err
			}
			n++
		case opInject:
			if _, err := srv.Inject(int(o.Item)); err != nil {
				return 0, err
			}
		}
	}
	if n == 0 {
		return 0, fmt.Errorf("actor replay: no queries")
	}
	return total / float64(n), nil
}

// codecCost returns the mean ns to encode one query frame and to read and
// decode one answer frame.
func codecCost(st step) (encNs, decNs float64) {
	var items []int
	for _, o := range st.Ops {
		if o.Kind == opQuery {
			items = append(items, int(o.Item))
		}
	}
	if len(items) == 0 {
		return 0, 0
	}
	var buf bytes.Buffer
	t0 := time.Now()
	for _, it := range items {
		buf.Reset()
		_ = serve.WriteFrame(&buf, serve.OpQuery, serve.EncodeQuery(it))
	}
	encNs = float64(time.Since(t0)) / float64(len(items))

	var stream bytes.Buffer
	for i, it := range items {
		ans := capabilities.Answer{Item: it, Version: uint64(i), Bits: 8192, AsOf: des.Time(i)}
		_ = serve.WriteFrame(&stream, serve.OpAnswer, serve.EncodeAnswerFrame(ans, false))
	}
	fr := serve.NewFrameReader(bytes.NewReader(stream.Bytes()))
	t0 = time.Now()
	for range items {
		_, payload, err := fr.Read()
		if err == nil {
			_, _, err = serve.DecodeAnswerFrame(payload)
		}
		if err != nil {
			return encNs, 0
		}
	}
	decNs = float64(time.Since(t0)) / float64(len(items))
	return encNs, decNs
}
