package main

import (
	"bytes"
	"errors"
	"fmt"
	"time"

	"anception/internal/abi"
	"anception/internal/anception"
	"anception/internal/netstack"
	"anception/internal/sim"
)

// net-open is an echo server under open-loop load in sim time: session i
// is due at t0 + i/rate regardless of completions, and its latency runs
// from its due time, so a stall shows up in every session behind it.
// Each step opens whatever is due (at most one accept batch per lane),
// serves it and drains the replies.

const (
	netLanes = 4
	// netStepMax bounds the sessions one step opens: one full accept4
	// batch per lane.
	netStepMax      = netLanes * anception.DefaultNetBatch
	netWarmSessions = 1024

	// netCapacity is the seed commit's closed-loop capacity in sessions
	// per busy sim-second (1021.8 measured). The offered rates and the
	// SLO ladder are frozen fractions of it, so they do not move when the
	// program gets faster.
	netCapacity = 1022.0
	// netSLO is the frozen p99.9 session latency limit: 10× the seed
	// commit's unloaded (10 sessions/sim-s) p50 session latency of 830 µs.
	netSLO = 8300 * time.Microsecond
	// The ladder's rungs are k × 2.5% of netCapacity for k in
	// [netLadderLo, netLadderHi].
	netLadderStep = 0.025
	netLadderLo   = 20
	netLadderHi   = 60
)

// netRates are the offered loads, absolute sessions per sim-second.
var netRates = []struct {
	name string
	rate float64
}{
	{"low", 0.50 * netCapacity},
	{"mid", 0.80 * netCapacity},
	{"high", 0.95 * netCapacity},
}

// netSizes is the request-size mix: 60% 256 B, 30% 4 KiB, 10% 64 KiB.
var netSizes = []int{256, pageSize, bulkSize}

func netTier(r *sim.RNG) int {
	switch x := r.Intn(10); {
	case x < 6:
		return 0
	case x < 9:
		return 1
	default:
		return 2
	}
}

type netSession struct {
	fd   int
	tier int
	id   int64
	due  time.Duration
	host time.Time
	ok   bool
}

type netRig struct {
	r              *rig
	clock          *sim.Clock
	rec            *recorder
	server, client *anception.Proc
	epfd           int
	lane           map[int]int // listener fd -> lane
	addrs          []string
	tiers          [][]byte
	srvBuf, cliBuf []byte
	rng            *sim.RNG

	// Open-loop schedule: session i is due at t0 + i*gap; gap 0 is a
	// closed loop where everything is due at once.
	t0      time.Duration
	gap     time.Duration
	next    int64
	pending []netSession
	// waiting holds, per lane, the ids of sessions not yet accepted.
	waiting [][]int64
	// lat, when set, collects session latencies for a rate run; backlog
	// tracks the most sessions found due but unopened at a step.
	lat     *hist
	backlog int64
}

func (n *netRig) setRate(rate float64) {
	n.t0, n.next = n.clock.Now(), 0
	n.gap = 0
	if rate > 0 {
		n.gap = time.Duration(float64(time.Second) / rate)
	}
}

func (n *netRig) due(i int64) time.Duration { return n.t0 + time.Duration(i)*n.gap }

// sessions runs count more sessions of the current schedule.
func (n *netRig) sessions(count int64) {
	end := n.next + count
	for n.next < end {
		now := n.clock.Now()
		if d := n.due(n.next); d > now {
			n.clock.Advance(d - now)
			n.r.idle += d - now
			now = d
		}
		if n.gap > 0 {
			n.backlog = max(n.backlog, int64((now-n.t0)/n.gap)+1-n.next)
		}
		for len(n.pending) < netStepMax && n.next < end && n.due(n.next) <= n.clock.Now() {
			n.open()
		}
		n.serve()
		n.drain()
	}
}

func (n *netRig) open() {
	s := netSession{fd: -1, tier: netTier(n.rng), id: n.rec.newID(), due: n.due(n.next)}
	if n.rec.timed {
		s.host = time.Now()
	}
	lane := int(n.next % netLanes)
	n.next++
	c, rec := n.client, n.rec
	m := rec.begin()
	fd, err := c.Socket(netstack.AFInet, netstack.SockStream, 0)
	rec.end(m, clsSock, s.id, err)
	if err == nil {
		s.fd = fd
		m = rec.begin()
		err = c.Connect(fd, n.addrs[lane])
		rec.end(m, clsSock, s.id, err)
	}
	if err == nil {
		m = rec.begin()
		_, err = c.Send(fd, n.tiers[s.tier])
		rec.end(m, clsSock, s.id, err)
	}
	if err == nil {
		n.waiting[lane] = append(n.waiting[lane], s.id)
	}
	s.ok = err == nil
	n.pending = append(n.pending, s)
}

// serve runs the server's event loop once: one epoll_wait, then each
// ready lane's backlog in accept4 batches, echoing every connection.
func (n *netRig) serve() {
	sv, rec := n.server, n.rec
	m := rec.begin()
	ready, err := sv.EpollWait(n.epfd, 0)
	rec.end(m, clsSock, 0, err)
	for _, lfd := range ready {
		lane := n.lane[lfd]
		for {
			m := rec.begin()
			conns, err := sv.AcceptBatch(lfd, 0)
			if errors.Is(err, abi.EAGAIN) {
				rec.end(m, clsSock, 0, nil)
				break
			}
			rec.end(m, clsSock, 0, err)
			if err != nil {
				break
			}
			n.r.accepts++
			n.r.accepted += int64(len(conns))
			for _, cfd := range conns {
				var id int64
				if q := n.waiting[lane]; len(q) > 0 {
					id, n.waiting[lane] = q[0], q[1:]
				}
				m := rec.begin()
				got, err := sv.RecvInto(cfd, n.srvBuf)
				rec.end(m, clsSock, id, err)
				if err == nil {
					m = rec.begin()
					_, err = sv.Send(cfd, n.srvBuf[:got])
					rec.end(m, clsSock, id, err)
				}
				m = rec.begin()
				err = sv.Close(cfd)
				rec.end(m, clsMeta, id, err)
			}
		}
	}
}

// drain receives every pending session's echo, checks it and closes.
func (n *netRig) drain() {
	c, rec := n.client, n.rec
	for _, s := range n.pending {
		want := n.tiers[s.tier]
		ok := s.ok
		for got := 0; ok && got < len(want); {
			m := rec.begin()
			k, err := c.RecvInto(s.fd, n.cliBuf[got:len(want)])
			rec.end(m, clsSock, s.id, err)
			ok = err == nil && k > 0
			got += k
		}
		if s.ok {
			rec.verify(ok && bytes.Equal(n.cliBuf[:len(want)], want))
		}
		if s.fd >= 0 {
			m := rec.begin()
			err := c.Close(s.fd)
			rec.end(m, clsMeta, s.id, err)
		}
		rec.sessionDone(s.id, s.due, s.host, ok)
		if n.lat != nil {
			n.lat.add(int64(n.clock.Now() - s.due))
		}
		n.r.sessions++
	}
	n.pending = n.pending[:0]
}

// setupNetOpen boots one server app (4 lane listeners behind one epoll
// instance) and one client app, warms them with a closed loop and leaves
// the schedule at the mid rate.
func setupNetOpen(cfg setupCfg) (_ *rig, st setupTimes, err error) {
	w := startWatch()
	opts := cfg.opts()
	opts.AutoTune = true
	opts.CallDeadline = time.Hour
	d, err := anception.NewDevice(opts)
	if err != nil {
		return nil, st, err
	}
	defer func() {
		if err != nil {
			d.Close()
		}
	}()
	st.boot = w.lap()
	server, err := launchApp(d, "com.bench.netserver")
	if err != nil {
		return nil, st, err
	}
	client, err := launchApp(d, "com.bench.netclient")
	if err != nil {
		return nil, st, err
	}
	st.installLaunch = w.lap()
	rec := newRecorder(0, 0, d.Clock)
	n := &netRig{
		r:      &rig{devs: []*anception.Device{d}, recs: []*recorder{rec}, close: d.Close},
		clock:  d.Clock,
		rec:    rec,
		server: server, client: client,
		lane:    make(map[int]int),
		srvBuf:  make([]byte, bulkSize),
		cliBuf:  make([]byte, bulkSize),
		rng:     sim.NewRNG(mix64(cfg.seed)),
		waiting: make([][]int64, netLanes),
	}
	for i, size := range netSizes {
		t := make([]byte, size)
		sim.NewRNG(cfg.seed ^ uint64(i+1)).Bytes(t)
		n.tiers = append(n.tiers, t)
	}
	if n.epfd, err = server.EpollCreate(); err != nil {
		return nil, st, fmt.Errorf("epoll_create: %w", err)
	}
	for lane := range netLanes {
		addr := fmt.Sprintf("echo.cvm:%d", 9000+lane)
		fd, err := server.Socket(netstack.AFInet, netstack.SockStream, 0)
		if err != nil {
			return nil, st, err
		}
		if err := server.Bind(fd, addr); err != nil {
			return nil, st, fmt.Errorf("bind %s: %w", addr, err)
		}
		if err := server.Listen(fd, 0); err != nil {
			return nil, st, fmt.Errorf("listen %s: %w", addr, err)
		}
		if err := server.EpollCtl(n.epfd, 1 /* EPOLL_CTL_ADD */, fd); err != nil {
			return nil, st, fmt.Errorf("epoll_ctl %s: %w", addr, err)
		}
		n.lane[fd] = lane
		n.addrs = append(n.addrs, addr)
	}
	n.setRate(0)
	n.sessions(netWarmSessions)
	st.warm = w.lap()
	n.setRate(netRates[1].rate)
	n.r.loadMetrics = n.loadMetrics
	n.r.segment = func(ops int) { n.sessions(int64(ops)) }
	return n.r, st, nil
}

// rateRun is one open-loop run at a fixed offered rate.
type rateRun struct {
	p50, p999 time.Duration
	grew      bool
}

// runRate offers count sessions at rate and reports session latency and
// whether the backlog of due-but-unopened sessions grew: its high-water
// mark over the last quarter of the run exceeds the second quarter's by
// more than one step.
func (n *netRig) runRate(rate float64, count int64) rateRun {
	var lat hist
	n.lat = &lat
	defer func() { n.lat = nil }()
	n.setRate(rate)
	var peak [4]int64
	for q := range int64(4) {
		n.backlog = 0
		n.sessions((q+1)*count/4 - n.next)
		peak[q] = n.backlog
	}
	return rateRun{
		p50:  time.Duration(lat.quantile(0.5)),
		p999: time.Duration(lat.quantile(0.999)),
		grew: peak[3] > peak[1]+netStepMax,
	}
}

// netRateSessions is the length of one rate run: enough sessions for
// p99.9 to have 10 beyond it.
const netRateSessions = 10_000

// ladder finds the highest rung whose p99.9 meets netSLO without a
// growing backlog, by bisection (a rung that fails stays failed at
// higher rates). It returns 0 when even the lowest rung fails.
func (n *netRig) ladder(count int64) float64 {
	rung := func(k int) float64 { return float64(k) * netLadderStep * netCapacity }
	pass := func(k int) bool {
		res := n.runRate(rung(k), count)
		return !res.grew && res.p999 <= netSLO
	}
	lo, hi := netLadderLo, netLadderHi
	if !pass(lo) {
		return 0
	}
	if pass(hi) {
		return rung(hi)
	}
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		if pass(mid) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return rung(lo)
}

// loadMetrics runs the three offered rates and the SLO ladder, each rate
// run count sessions long.
func (n *netRig) loadMetrics(count int64) map[string]float64 {
	m := map[string]float64{}
	for _, r := range netRates {
		res := n.runRate(r.rate, count)
		m["sim_session_us_p50."+r.name] = float64(res.p50) / 1e3
		m["sim_session_us_p999."+r.name] = float64(res.p999) / 1e3
	}
	m["sessions_per_sim_s_at_slo"] = n.ladder(count)
	return m
}
