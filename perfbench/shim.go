package main

import (
	"sync/atomic"
	"time"

	"croesus/internal/transport"
	"croesus/internal/vclock"
)

// sendLog records every transport send of a traced run without
// allocating on the send path: counts and bytes are atomics, and Send
// durations go into a preallocated slice (later sends beyond its capacity
// are counted but not timed).
type sendLog struct {
	sends, charges, bytes atomic.Int64
	durs                  []time.Duration
}

func newSendLog() *sendLog { return &sendLog{durs: make([]time.Duration, 1<<20)} }

func (l *sendLog) record(n int, d time.Duration) {
	l.bytes.Add(int64(n))
	if i := l.sends.Add(1) - 1; i < int64(len(l.durs)) {
		l.durs[i] = d
	}
}

// timed returns the recorded Send durations. Call it once the sends are
// over.
func (l *sendLog) timed() []time.Duration {
	n := l.sends.Load()
	if n > int64(len(l.durs)) {
		n = int64(len(l.durs))
	}
	return l.durs[:n]
}

// countingTransport wraps the fleet's transport so every path it hands
// out counts and times its traffic. Name, Stats and the fault hooks pass
// through unchanged, so the fleet behaves exactly as on the wrapped one.
type countingTransport struct {
	transport.Transport
	log *sendLog
}

func (t *countingTransport) wrap(p transport.Path) transport.Path {
	if p == nil {
		return nil // the diagonal of the peer mesh
	}
	return &countingPath{Path: p, log: t.log}
}

func (t *countingTransport) ClientEdge(i int) transport.Path {
	return t.wrap(t.Transport.ClientEdge(i))
}

func (t *countingTransport) EdgeCloud(i int) transport.Path {
	return t.wrap(t.Transport.EdgeCloud(i))
}

func (t *countingTransport) Peer(from, to int) transport.Path {
	return t.wrap(t.Transport.Peer(from, to))
}

type countingPath struct {
	transport.Path
	log *sendLog
}

func (p *countingPath) Send(clk vclock.Clock, n int) {
	t0 := time.Now()
	p.Path.Send(clk, n)
	p.log.record(n, time.Since(t0))
}

// Charge is the fan-out form of Send: the caller sleeps once for the
// slowest of several charged paths, so it is counted but not timed.
func (p *countingPath) Charge(n int) time.Duration {
	p.log.charges.Add(1)
	p.log.bytes.Add(int64(n))
	return p.Path.Charge(n)
}
