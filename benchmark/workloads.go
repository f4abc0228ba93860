package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sync"
	"time"

	"anception/internal/abi"
	"anception/internal/anception"
	"anception/internal/android"
	"anception/internal/kernel"
	"anception/internal/netstack"
	"anception/internal/sim"
)

// setupCfg is what a workload's set-up needs: the inputs come from seed.
type setupCfg struct {
	seed   uint64
	mode   anception.Mode
	traced bool
}

// opts is the device configuration every workload starts from.
func (c setupCfg) opts() anception.Options {
	return anception.Options{Mode: c.mode, DisableTrace: !c.traced}
}

// setupTimes splits one set-up into its phases, in host seconds.
type setupTimes struct {
	boot, installLaunch, warm float64
}

func (s setupTimes) total() float64 { return s.boot + s.installLaunch + s.warm }

// stopwatch times consecutive set-up phases.
type stopwatch struct{ t time.Time }

func startWatch() stopwatch { return stopwatch{t: time.Now()} }

func (w *stopwatch) lap() float64 {
	now := time.Now()
	d := now.Sub(w.t).Seconds()
	w.t = now
	return d
}

const (
	pageSize = abi.PageSize
	bulkSize = 64 << 10
	echoSize = 128
	echoAddr = "echo.bench:7"
)

// echoRemote is the scripted remote every socket echo talks to.
func echoRemote(req []byte) []byte { return req }

// zeroPayload is the fixed 128 B binder payload; it is never written.
var zeroPayload = make([]byte, echoSize)

// mix64 is the SplitMix64 finalizer.
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// pageFile is one app's data file plus a shadow of every page's write
// version. Every page write stamps a pattern derived from (seed, app,
// page, version), so every read can be checked against the bytes last
// written.
type pageFile struct {
	seed uint64
	app  int
	path string
	fd   int
	ver  []uint32
}

func (f *pageFile) word(page int) uint64 {
	return mix64(f.seed ^ uint64(f.app)<<48 ^ uint64(page)<<24 ^ uint64(f.ver[page]))
}

// fill stamps buf with the current pattern of the pages it covers,
// starting at page.
func (f *pageFile) fill(buf []byte, page int) {
	for p := 0; p*pageSize < len(buf); p++ {
		x := f.word(page + p)
		chunk := buf[p*pageSize : (p+1)*pageSize]
		for i := 0; i < pageSize; i += 8 {
			binary.LittleEndian.PutUint64(chunk[i:], x+uint64(i))
		}
	}
}

// matches reports whether buf holds the current pattern of its pages.
func (f *pageFile) matches(buf []byte, page int) bool {
	for p := 0; p*pageSize < len(buf); p++ {
		x := f.word(page + p)
		chunk := buf[p*pageSize : (p+1)*pageSize]
		for i := 0; i < pageSize; i += 8 {
			if binary.LittleEndian.Uint64(chunk[i:]) != x+uint64(i) {
				return false
			}
		}
	}
	return true
}

func (f *pageFile) size() int64 { return int64(len(f.ver)) * pageSize }

// benchApp is one launched app with its open handles and scratch buffers.
type benchApp struct {
	id   int
	p    *anception.Proc
	rec  *recorder
	rng  *sim.RNG
	file *pageFile
	// chain is a read-only file the fused chains open by path.
	chain *pageFile
	sock  int
	bfd   int
	// reply is the location service's answer, captured at set-up.
	reply []byte

	page, bulk, echo, echoIn []byte
	ops                      int64
}

func launchApp(d *anception.Device, pkg string) (*anception.Proc, error) {
	app, err := d.InstallApp(android.AppSpec{Package: pkg})
	if err != nil {
		return nil, fmt.Errorf("install %s: %w", pkg, err)
	}
	p, err := d.Launch(app)
	if err != nil {
		return nil, fmt.Errorf("launch %s: %w", pkg, err)
	}
	return p, nil
}

func newBenchApp(id int, p *anception.Proc, rec *recorder, seed uint64) *benchApp {
	return &benchApp{
		id: id, p: p, rec: rec, rng: sim.NewRNG(mix64(seed ^ uint64(id+1)<<32)),
		page: make([]byte, pageSize), bulk: make([]byte, bulkSize),
		echo: make([]byte, echoSize), echoIn: make([]byte, echoSize),
	}
}

// createFile creates path with pages pages of stamped content, written
// in bulk extents, and leaves it open when keep is set.
func (a *benchApp) createFile(path string, pages int, seed uint64, keep bool) (*pageFile, error) {
	fd, err := a.p.Open(path, abi.ORdWr|abi.OCreat|abi.OTrunc, 0o600)
	if err != nil {
		return nil, fmt.Errorf("create %s: %w", path, err)
	}
	f := &pageFile{seed: seed, app: a.id, path: path, fd: fd, ver: make([]uint32, pages)}
	for pg := 0; pg < pages; pg += bulkSize / pageSize {
		n := min(bulkSize, (pages-pg)*pageSize)
		f.fill(a.bulk[:n], pg)
		if _, err := a.p.Pwrite(fd, a.bulk[:n], int64(pg)*pageSize); err != nil {
			return nil, fmt.Errorf("populate %s: %w", path, err)
		}
	}
	if !keep {
		if err := a.p.Close(fd); err != nil {
			return nil, fmt.Errorf("close %s: %w", path, err)
		}
		f.fd = -1
	}
	return f, nil
}

// connect opens the app's echo socket and binder descriptor and captures
// the location service's reply.
func (a *benchApp) connect() error {
	sock, err := a.p.Socket(netstack.AFInet, netstack.SockStream, 0)
	if err != nil {
		return fmt.Errorf("socket: %w", err)
	}
	if err := a.p.Connect(sock, echoAddr); err != nil {
		return fmt.Errorf("connect: %w", err)
	}
	bfd, err := a.p.OpenBinder()
	if err != nil {
		return fmt.Errorf("open binder: %w", err)
	}
	reply, err := a.p.BinderCall(bfd, "location", android.CodeGetLocation, zeroPayload)
	if err != nil {
		return fmt.Errorf("binder: %w", err)
	}
	a.sock, a.bfd, a.reply = sock, bfd, reply
	return nil
}

func (a *benchApp) pwrite(fd int, buf []byte, page int, cls class) time.Duration {
	f := a.file
	for p := 0; p*pageSize < len(buf); p++ {
		f.ver[page+p]++
	}
	f.fill(buf, page)
	m := a.rec.begin()
	n, err := a.p.Pwrite(fd, buf, int64(page)*pageSize)
	d := a.rec.end(m, cls, 0, err)
	if err == nil {
		a.rec.verify(n == len(buf))
	}
	return d
}

func (a *benchApp) pread(f *pageFile, fd int, buf []byte, page int, cls class) time.Duration {
	m := a.rec.begin()
	n, err := a.p.PreadInto(fd, buf, int64(page)*pageSize)
	d := a.rec.end(m, cls, 0, err)
	if err == nil {
		a.rec.verify(n == len(buf) && f.matches(buf, page))
	}
	return d
}

func (a *benchApp) getpid() time.Duration {
	m := a.rec.begin()
	pid := a.p.Getpid()
	d := a.rec.end(m, clsMeta, 0, nil)
	a.rec.verify(pid == a.p.Task.PID)
	return d
}

func (a *benchApp) open(path string) int {
	m := a.rec.begin()
	fd, err := a.p.Open(path, abi.ORdWr, 0)
	a.rec.end(m, clsMeta, 0, err)
	return fd
}

func (a *benchApp) closeFD(fd int) {
	m := a.rec.begin()
	err := a.p.Close(fd)
	a.rec.end(m, clsMeta, 0, err)
}

func (a *benchApp) stat(f *pageFile) {
	m := a.rec.begin()
	size, err := a.p.Stat(f.path)
	a.rec.end(m, clsMeta, 0, err)
	if err == nil {
		a.rec.verify(size == f.size())
	}
}

// echoOnce sends a stamped 128 B message to the echo remote and checks
// the reply.
func (a *benchApp) echoOnce() {
	binary.LittleEndian.PutUint64(a.echo, a.rng.Uint64())
	m := a.rec.begin()
	_, err := a.p.Send(a.sock, a.echo)
	a.rec.end(m, clsSock, 0, err)
	m = a.rec.begin()
	n, err := a.p.RecvInto(a.sock, a.echoIn)
	a.rec.end(m, clsSock, 0, err)
	if err == nil {
		a.rec.verify(bytes.Equal(a.echoIn[:n], a.echo))
	}
}

func (a *benchApp) binder(payload []byte) time.Duration {
	m := a.rec.begin()
	reply, err := a.p.BinderCall(a.bfd, "location", android.CodeGetLocation, payload)
	d := a.rec.end(m, clsBinder, 0, err)
	if err == nil {
		a.rec.verify(bytes.Equal(reply, a.reply))
	}
	return d
}

// chainRead runs open→fstat→pread(4 KiB)→close on the app's read-only
// chain file as one Proc.Chain call.
func (a *benchApp) chainRead(page int) {
	f := a.chain
	m := a.rec.begin()
	res := a.p.Chain(
		anception.ChainCall{Args: kernel.Args{Nr: abi.SysOpen, Path: f.path, Flags: abi.ORdOnly}, FDFrom: -1},
		anception.ChainCall{Args: kernel.Args{Nr: abi.SysFstat}, FDFrom: 0},
		anception.ChainCall{Args: kernel.Args{Nr: abi.SysPread64, Buf: a.page, Off: int64(page) * pageSize}, FDFrom: 0},
		anception.ChainCall{Args: kernel.Args{Nr: abi.SysClose}, FDFrom: 0},
	)
	var err error
	for _, r := range res {
		if !r.Ok() {
			err = r.Err
			break
		}
	}
	a.rec.end(m, clsChain, 0, err)
	if err == nil {
		a.rec.verify(res[1].Ret == f.size() && res[2].Ret == pageSize && f.matches(a.page, page))
	}
}

// --- paper-sync ---

// Table I pins (internal/anception/tablei_test.go): the paper-sync
// per-class sim latencies must reproduce them.
var syncPins = []struct {
	name string
	want time.Duration
	tol  float64
}{
	{"getpid", 760 * time.Nanosecond, 0.01},
	{"pwrite", 384450 * time.Nanosecond, 0.03},
	{"pread", 305030 * time.Nanosecond, 0.03},
	{"binder", 31 * time.Millisecond, 0.01},
}

const (
	syncFilePages   = 64
	syncBinderEvery = 16
	syncWarmIters   = 2048
)

func setupPaperSync(cfg setupCfg) (_ *rig, st setupTimes, err error) {
	w := startWatch()
	d, err := anception.NewDevice(cfg.opts())
	if err != nil {
		return nil, st, err
	}
	defer func() {
		if err != nil {
			d.Close()
		}
	}()
	st.boot = w.lap()
	p, err := launchApp(d, "com.bench.sync")
	if err != nil {
		return nil, st, err
	}
	st.installLaunch = w.lap()
	rec := newRecorder(0, 0, d.Clock)
	a := newBenchApp(0, p, rec, cfg.seed)
	if a.file, err = a.createFile("sync.dat", syncFilePages, cfg.seed, false); err != nil {
		return nil, st, err
	}
	if a.bfd, err = p.OpenBinder(); err != nil {
		return nil, st, err
	}
	if a.reply, err = p.BinderCall(a.bfd, "location", android.CodeGetLocation, zeroPayload); err != nil {
		return nil, st, err
	}
	var pins [4][2]time.Duration // min and max of each pin, in syncPins order
	iter := func() {
		obs := [4]time.Duration{}
		obs[0] = a.getpid()
		fd := a.open(a.file.path)
		obs[1] = a.pwrite(fd, a.page, a.rng.Intn(syncFilePages), clsPageWrite)
		obs[2] = a.pread(a.file, fd, a.page, a.rng.Intn(syncFilePages), clsPageRead)
		a.stat(a.file)
		a.closeFD(fd)
		a.ops++
		if a.ops%syncBinderEvery == 0 {
			obs[3] = a.binder(zeroPayload)
		}
		for i, o := range obs {
			if o == 0 {
				continue
			}
			if pins[i][0] == 0 || o < pins[i][0] {
				pins[i][0] = o
			}
			pins[i][1] = max(pins[i][1], o)
		}
	}
	for range syncWarmIters {
		iter()
	}
	st.warm = w.lap()
	r := &rig{
		devs: []*anception.Device{d},
		recs: []*recorder{rec},
		segment: func(ops int) {
			for range ops {
				iter()
			}
		},
		close: d.Close,
	}
	if cfg.mode == anception.ModeAnception {
		r.check = func() error {
			for i, pin := range syncPins {
				lo := time.Duration(float64(pin.want) * (1 - pin.tol))
				hi := time.Duration(float64(pin.want) * (1 + pin.tol))
				if pins[i][0] < lo || pins[i][1] > hi {
					return fmt.Errorf("paper-sync %s sim latency %v..%v outside Table I pin %v ±%.0f%%",
						pin.name, pins[i][0], pins[i][1], pin.want, pin.tol*100)
				}
			}
			return nil
		}
	}
	return r, st, nil
}

// --- fast-mix ---

const (
	mixApps       = 2
	mixFilePages  = 8 << 20 / pageSize
	mixChainPages = 64
	mixWarmOps    = 4096
	// mixPayloads is the pool of repeated binder payloads; half the
	// binder calls draw from it (reply-cache hits once warm), half carry
	// a fresh payload (session transactions).
	mixPayloads = 16
)

// mixOp runs one fast-mix op: 40% 4 KiB pread, 20% 4 KiB pwrite, 10%
// 64 KiB bulk alternating read and write, 10% fused open→fstat→pread→
// close chain, 10% 128 B socket echo, 5% stat, 5% binder.
func (a *benchApp) mixOp(payloads [][]byte) {
	f := a.file
	switch r := a.rng.Intn(100); {
	case r < 40:
		a.pread(f, f.fd, a.page, a.rng.Intn(mixFilePages), clsPageRead)
	case r < 60:
		a.pwrite(f.fd, a.page, a.rng.Intn(mixFilePages), clsPageWrite)
	case r < 70:
		page := a.rng.Intn(mixFilePages/(bulkSize/pageSize)) * (bulkSize / pageSize)
		if a.ops%2 == 0 {
			a.pread(f, f.fd, a.bulk, page, clsBulk)
		} else {
			a.pwrite(f.fd, a.bulk, page, clsBulk)
		}
	case r < 80:
		a.chainRead(a.rng.Intn(mixChainPages))
	case r < 90:
		a.echoOnce()
	case r < 95:
		a.stat(f)
	default:
		payload := payloads[a.rng.Intn(mixPayloads)]
		if a.rng.Intn(2) == 0 {
			payload = a.echo
			binary.LittleEndian.PutUint64(payload, a.rng.Uint64())
		}
		a.binder(payload)
	}
	a.ops++
}

func setupFastMix(cfg setupCfg) (_ *rig, st setupTimes, err error) {
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
	d.RegisterRemote(echoAddr, echoRemote)
	st.boot = w.lap()
	apps := make([]*benchApp, mixApps)
	r := &rig{devs: []*anception.Device{d}, close: d.Close}
	for i := range apps {
		p, err := launchApp(d, fmt.Sprintf("com.bench.mix%d", i))
		if err != nil {
			return nil, st, err
		}
		rec := newRecorder(i, 0, d.Clock)
		apps[i] = newBenchApp(i, p, rec, cfg.seed)
		r.recs = append(r.recs, rec)
	}
	st.installLaunch = w.lap()
	payloads := make([][]byte, mixPayloads)
	rng := sim.NewRNG(cfg.seed)
	for i := range payloads {
		payloads[i] = make([]byte, echoSize)
		rng.Bytes(payloads[i])
	}
	for _, a := range apps {
		if a.file, err = a.createFile("mix.dat", mixFilePages, cfg.seed, true); err != nil {
			return nil, st, err
		}
		if a.chain, err = a.createFile("chain.dat", mixChainPages, cfg.seed^0xc4a1, false); err != nil {
			return nil, st, err
		}
		if err := a.connect(); err != nil {
			return nil, st, err
		}
	}
	run := func(ops int) {
		var wg sync.WaitGroup
		for _, a := range apps {
			wg.Add(1)
			go func(a *benchApp) {
				defer wg.Done()
				for range (ops + mixApps - 1) / mixApps {
					a.mixOp(payloads)
				}
			}(a)
		}
		wg.Wait()
	}
	run(mixWarmOps)
	st.warm = w.lap()
	r.segment = run
	return r, st, nil
}

// --- fleet16 ---

const (
	fleetShards = 16
	fleetApps   = 32
	// fleetPeriod is the RunFleetMix blend: of every 8 ops per app, 4 are
	// page pwrite+pread pairs, 2 are 128 B socket echoes, 1 is a 64 KiB
	// bulk pwrite and 1 is a 128 B binder call.
	fleetPeriod   = 8
	fleetWarmOps  = 32
	fleetOpsChunk = fleetPeriod
)

func (a *benchApp) fleetOp() {
	f := a.file
	switch a.ops % fleetPeriod {
	case 0, 2, 4, 6:
		a.pwrite(f.fd, a.page, 0, clsPageWrite)
		a.pread(f, f.fd, a.page, 0, clsPageRead)
	case 1, 5:
		a.echoOnce()
	case 3:
		a.pwrite(f.fd, a.bulk, 0, clsBulk)
	default:
		a.binder(zeroPayload)
		// The blend alone puts exactly half its calls at or below the
		// page write's sim cost, so the median would flip between the
		// write and the read whenever one call's charge landed elsewhere.
		// One getpid per period moves the median off that edge.
		a.getpid()
	}
	a.ops++
}

// setupFleet16 boots the 16-shard fleet with 32 apps placed least-loaded.
// In native mode the same 32 apps and op stream run on one native device,
// the host-time floor without redirection.
func setupFleet16(cfg setupCfg) (_ *rig, st setupTimes, err error) {
	w := startWatch()
	opts := cfg.opts()
	opts.AutoTune = true
	opts.CallDeadline = time.Hour
	r := &rig{}
	defer func() {
		if err != nil && r.close != nil {
			r.close()
		}
	}()
	var fleet *anception.Fleet
	var place func(i int) (*anception.Proc, int, error)
	if cfg.mode == anception.ModeNative {
		d, err := anception.NewDevice(opts)
		if err != nil {
			return nil, st, err
		}
		d.RegisterRemote(echoAddr, echoRemote)
		r.devs, r.close = []*anception.Device{d}, d.Close
		place = func(i int) (*anception.Proc, int, error) {
			p, err := launchApp(d, fmt.Sprintf("com.bench.fleet%02d", i))
			return p, 0, err
		}
	} else {
		opts.FleetSize = fleetShards
		if fleet, err = anception.NewFleet(opts); err != nil {
			return nil, st, err
		}
		for _, sh := range fleet.Shards() {
			sh.Dev.RegisterRemote(echoAddr, echoRemote)
			r.devs = append(r.devs, sh.Dev)
		}
		r.close = fleet.Close
		place = func(i int) (*anception.Proc, int, error) {
			fa, err := fleet.InstallApp(android.AppSpec{Package: fmt.Sprintf("com.bench.fleet%02d", i)})
			if err != nil {
				return nil, 0, err
			}
			return fa.Proc(), fa.Shard(), nil
		}
	}
	st.boot = w.lap()
	for i, d := range r.devs {
		r.recs = append(r.recs, newRecorder(i, i, d.Clock))
	}
	r.shardHost = make([]time.Duration, len(r.devs))
	perShard := make([][]*benchApp, len(r.devs))
	var apps []*benchApp
	for i := range fleetApps {
		p, shard, err := place(i)
		if err != nil {
			return nil, st, err
		}
		a := newBenchApp(i, p, r.recs[shard], cfg.seed)
		perShard[shard] = append(perShard[shard], a)
		apps = append(apps, a)
	}
	st.installLaunch = w.lap()
	for _, a := range apps {
		if a.file, err = a.createFile("mix.dat", bulkSize/pageSize, cfg.seed, true); err != nil {
			return nil, st, err
		}
		if err := a.connect(); err != nil {
			return nil, st, err
		}
	}
	// Shards run one after another on this goroutine, each app a chunk
	// of ops at a time.
	run := func(chunks int) {
		for range chunks {
			for s, shardApps := range perShard {
				t := time.Now()
				for _, a := range shardApps {
					for range fleetOpsChunk {
						a.fleetOp()
					}
				}
				r.shardHost[s] += time.Since(t)
			}
		}
	}
	run(fleetWarmOps / fleetOpsChunk)
	st.warm = w.lap()
	r.segment = run
	return r, st, nil
}
