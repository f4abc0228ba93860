// Command benchmark is the repository's benchmark: four workloads that
// drive the simulator through its public APIs and report, end to end and
// per layer, both clocks — sim time (what the model predicts) and host
// time (how fast the simulator runs). See README.md.
//
// Usage:
//
//	bash benchmark/run.sh --workload paper-sync --seed 1 --seconds 15 --trace 0
//	bash benchmark/run.sh --workload fast-mix --seed 1 --trace 1 --spans spans.jsonl
//	bash benchmark/run.sh --runs 5 --seed 1          # all workloads, 5 seeds each
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"

	"anception/internal/anception"
	"anception/internal/sim"
)

// workload is one set of inputs the benchmark runs.
type workload struct {
	name, why string
	// simTol bounds how far the traced slice's sim time may differ from
	// the untraced slice's. Only paper-sync, on the synchronous channel,
	// is exactly deterministic. On the others the ring's worker
	// goroutines charge the shared clock while the app runs, so a few
	// charges land in a neighbouring call or idle gap; fast-mix's two
	// tasks also share one clock, so its sim time follows goroutine
	// interleaving and is not compared (ROADMAP item 1).
	simTol float64
	// segOps is one segment's fixed work in the workload's own unit;
	// windowSegs segments form the fixed sim window.
	segOps int
	// traceSegOps is the traced run's segment: windowSegs of them are
	// about a tenth of the work, capped so today's unbounded sim.Trace
	// stays small.
	traceSegOps int
	setup       func(setupCfg) (*rig, setupTimes, error)
}

// windowSegs is the number of segments in every fixed sim window.
const windowSegs = 20

// The fixed work sizes are frozen. On the 2-core reference host at the
// seed commit a segment takes about 0.25 s and the sim window about 5 s,
// with at least 10^5 Proc calls in it; fast-mix's are twice that, since
// its sim numbers vary with goroutine interleaving and need more samples
// to repeat. A traced segment is at most a tenth of a full one and keeps
// the traced window near 5×10^4 calls.
var workloads = []*workload{
	{
		name:   "paper-sync",
		why:    "the paper's sync page channel, no fast path: world switches, proxy dispatch, copies, uncached binder",
		segOps: 16384, traceSegOps: 512,
		setup: setupPaperSync,
	},
	{
		name:   "fast-mix",
		why:    "AutoTune with 2 apps: ring, cache (hit ratio ~0.3), grants, fusion, policy and binder sessions at work",
		simTol: math.Inf(1),
		segOps: 20480, traceSegOps: 1024,
		setup: setupFastMix,
	},
	{
		name:   "net-open",
		why:    "open-loop echo server: socket ops, accept/epoll batching and grant-backed sends under offered load",
		simTol: 1e-3,
		segOps: 4608, traceSegOps: 230,
		setup: setupNetOpen,
	},
	{
		name:   "fleet16",
		why:    "16-shard fleet, 32 apps: placement, per-shard domains; one-page working set, so the cache always hits",
		simTol: 1e-3,
		segOps: 80, traceSegOps: 6,
		setup: setupFleet16,
	},
}

func lookup(name string) (*workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(names, ", "))
}

// runConfig is one run's settings.
type runConfig struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	// scale multiplies every fixed work size (tests run at 1/200).
	scale float64
	// spans is where a traced run writes its spans.
	spans string
	// setups is how many set-ups setup_s takes the median over (0 means
	// 5; tests use 1).
	setups int
}

func (c runConfig) ops(n int) int { return max(1, int(float64(n)*c.scale)) }

func (c runConfig) setupCount() int {
	if c.setups == 0 {
		return 5
	}
	return c.setups
}

// value is one metric as printed in the result.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int64            `json:"attempted"`
	Failed    int64            `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// setUp runs w's set-up n times and returns the last rig with every
// set-up's times. Each earlier rig is closed and its garbage collected
// outside the timed region, which keeps peak memory at one rig and each
// set-up's time independent of the one before.
func setUp(w *workload, sc setupCfg, n int) (*rig, []setupTimes, error) {
	var times []setupTimes
	var r *rig
	for range n {
		if r != nil {
			r.close()
			runtime.GC()
		}
		var st setupTimes
		var err error
		if r, st, err = w.setup(sc); err != nil {
			return nil, nil, fmt.Errorf("%s set-up: %w", w.name, err)
		}
		times = append(times, st)
	}
	return r, times, nil
}

// checkPhase verifies, after a phase, the accounting identities
// Submitted = Completed + Failed, that no datagram was dropped (every
// workload uses stream sockets) and the workload's own invariants.
func checkPhase(r *rig, o *phaseOut) error {
	c := o.total
	for _, k := range []string{"ring", "net", "fusion", "binder"} {
		if c[k+".submitted"] != c[k+".completed"]+c[k+".failed"] {
			return fmt.Errorf("%s accounting identity broken: submitted %v != completed %v + failed %v",
				k, c[k+".submitted"], c[k+".completed"], c[k+".failed"])
		}
	}
	if drops := c["net.dgram_drops"]; drops != 0 {
		return fmt.Errorf("netstack dropped %v datagrams", drops)
	}
	if r.check != nil {
		return r.check()
	}
	return nil
}

func run(cfg runConfig, out io.Writer) (*result, error) {
	w, err := lookup(cfg.workload)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(out, "# workload=%s seed=%d seconds=%g trace=%v nproc=%d GOMAXPROCS=%d go=%s\n",
		w.name, cfg.seed, cfg.seconds, cfg.trace, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
	sc := setupCfg{seed: cfg.seed, mode: anception.ModeAnception}
	if cfg.trace {
		return runTraced(w, cfg, sc, out)
	}
	return runUntraced(w, cfg, sc, out)
}

func runUntraced(w *workload, cfg runConfig, sc setupCfg, out io.Writer) (*result, error) {
	r, times, err := setUp(w, sc, cfg.setupCount())
	if err != nil {
		return nil, err
	}
	defer r.close()
	o := runPhase(r, cfg.ops(w.segOps), windowSegs, cfg.seconds, false)
	if err := checkPhase(r, o); err != nil {
		return nil, err
	}
	setupS, _ := medianSetup(times)
	h := o.simCalls()
	q := quartiles(o.segRates)
	fmt.Fprintf(out, "# segments=%d host_s=%.3f calls=%d failed=%d fail_frac=%g window_calls=%d sim_samples=%d p999_tail_ok=%v\n",
		len(o.segRates), o.hostSeconds, o.calls, o.failed, ratio(float64(o.failed), float64(o.calls)),
		o.windowCalls, h.n, tailOK(h.n, 0.999))
	fmt.Fprintf(out, "# host calls/s per segment: q1=%.0f median=%.0f q3=%.0f; heap peak %.1f MB\n",
		q[0], q[1], q[2], float64(o.heapPeak)/1e6)
	return report(endToEndMetrics(setupS, o), endToEnd, o.calls, o.failed, out), nil
}

// rigA is what the traced run takes from its untraced rig.
type rigA struct {
	slice, host *phaseOut
	load        map[string]float64
	times       []setupTimes
	model       sim.LatencyModel
}

// measureA sets rig A up like the untraced run, runs the traced slice
// with per-call host timing, then full segments for the host-time
// metrics, then (net-open) the rate runs.
func measureA(w *workload, cfg runConfig, sc setupCfg) (*rigA, error) {
	r, times, err := setUp(w, sc, cfg.setupCount())
	if err != nil {
		return nil, err
	}
	defer r.close()
	out := &rigA{times: times, model: r.devs[0].Model}
	out.slice = runPhase(r, cfg.ops(w.traceSegOps), windowSegs, 0, true)
	if err := checkPhase(r, out.slice); err != nil {
		return nil, err
	}
	out.host = runPhase(r, cfg.ops(w.segOps), 0, cfg.seconds, false)
	if err := checkPhase(r, out.host); err != nil {
		return nil, err
	}
	if r.loadMetrics != nil {
		out.load = r.loadMetrics(int64(cfg.ops(netRateSessions)))
	}
	return out, nil
}

// runTraced measures the per-layer metrics: rig A (measureA), then rig B
// running the same slice with sim.Trace on, then rig C running it on
// ModeNative.
func runTraced(w *workload, cfg runConfig, sc setupCfg, out io.Writer) (*result, error) {
	ra, err := measureA(w, cfg, sc)
	if err != nil {
		return nil, err
	}
	a, host := ra.slice, ra.host
	sliceOps := cfg.ops(w.traceSegOps)
	phase := func(sc setupCfg, timed bool) (*phaseOut, error) {
		r, _, err := setUp(w, sc, 1)
		if err != nil {
			return nil, err
		}
		defer r.close()
		o := runPhase(r, sliceOps, windowSegs, 0, timed)
		return o, checkPhase(r, o)
	}
	b, err := phase(setupCfg{seed: sc.seed, mode: sc.mode, traced: true}, true)
	if err != nil {
		return nil, err
	}
	if err := sameSim(a, b, w.simTol); err != nil {
		return nil, fmt.Errorf("%s traced vs untraced: %w", w.name, err)
	}
	if err := writeSpans(cfg, w.name, b.spans); err != nil {
		return nil, err
	}
	c, err := phase(setupCfg{seed: sc.seed, mode: anception.ModeNative}, false)
	if err != nil {
		return nil, err
	}

	_, parts := medianSetup(ra.times)
	m := perLayerMetrics(a, b, c, host, parts, ra.load, ra.model)
	fmt.Fprintf(out, "# traced slice: calls=%d traced_calls=%d native_calls=%d spans=%d -> %s\n",
		a.windowCalls, b.windowCalls, c.windowCalls, len(b.spans), spansPath(cfg, w.name))
	var attempted, failed int64
	for _, o := range []*phaseOut{a, host, b, c} {
		attempted += o.calls
		failed += o.failed
	}
	return report(m, perLayer, attempted, failed, out), nil
}

func spansPath(cfg runConfig, name string) string {
	if cfg.spans != "" {
		return cfg.spans
	}
	return filepath.Join(".bench_build", "spans-"+name+".jsonl")
}

// writeSpans writes one JSON object per line.
func writeSpans(cfg runConfig, name string, spans []span) error {
	path := spansPath(cfg, name)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(struct {
			Workload string `json:"workload"`
			span
		}{name, s}); err != nil {
			f.Close()
			return fmt.Errorf("spans: %w", err)
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("spans: %w", err)
	}
	return f.Close()
}

// report prints every metric by name with its unit and builds the result.
func report(m map[string]float64, defs []metricDef, attempted, failed int64, out io.Writer) *result {
	res := &result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]value{}}
	for _, d := range defs {
		v := m[d.name]
		res.Metrics[d.name] = value{Value: v, Unit: d.unit}
		fmt.Fprintf(out, "%-44s %16.6g %s\n", d.name, v, d.unit)
	}
	return res
}

// multiRun runs each workload k times as child processes with seeds
// seed..seed+k-1 and prints each metric's median, quartiles and spread.
func multiRun(names []string, k int, seed uint64, seconds float64, trace bool, out io.Writer) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	defs, traceFlag := endToEnd, "0"
	if trace {
		defs, traceFlag = perLayer, "1"
	}
	for _, name := range names {
		vals := map[string][]float64{}
		for i := range k {
			args := []string{"--workload", name, "--seed", strconv.FormatUint(seed+uint64(i), 10),
				"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", traceFlag}
			cmd := exec.Command(exe, args...)
			cmd.Stderr = os.Stderr
			stdout, err := cmd.Output()
			if err != nil {
				return fmt.Errorf("%s run %d: %w", name, i, err)
			}
			lines := strings.Split(strings.TrimSpace(string(stdout)), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				return fmt.Errorf("%s run %d: %w", name, i, err)
			}
			if !res.Correct {
				return fmt.Errorf("%s run %d: %d of %d ops failed", name, i, res.Failed, res.Attempted)
			}
			for n, v := range res.Metrics {
				vals[n] = append(vals[n], v.Value)
			}
		}
		fmt.Fprintf(out, "== %s: %d runs, seeds %d..%d\n", name, k, seed, seed+uint64(k)-1)
		fmt.Fprintf(out, "%-44s %14s %14s %14s %9s %9s %6s\n", "metric", "median", "q1", "q3", "iqr/med", "rng/med", "bound")
		for _, d := range defs {
			xs := vals[d.name]
			med := median(xs)
			q := [3]float64{med, med, med}
			if len(xs) >= 2 {
				q = quartiles(xs)
			}
			lo, hi := minMax(xs)
			iqr, rng := ratio(q[2]-q[0], med), ratio(hi-lo, med)
			flag := ""
			if d.bound > 0 && rng > d.bound {
				flag = "  SPREAD>BOUND"
			}
			fmt.Fprintf(out, "%-44s %14.6g %14.6g %14.6g %9.4f %9.4f %6.3g%s\n", d.name, med, q[0], q[2], iqr, rng, d.bound, flag)
		}
	}
	return nil
}

func minMax(xs []float64) (lo, hi float64) {
	for i, x := range xs {
		if i == 0 || x < lo {
			lo = x
		}
		if i == 0 || x > hi {
			hi = x
		}
	}
	return lo, hi
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run")
		seed    = flag.Uint64("seed", 1, "input seed")
		seconds = flag.Float64("seconds", 15, "host seconds a measured phase runs for")
		trace   = flag.Int("trace", 0, "1 runs the traced slice and reports per-layer metrics")
		runs    = flag.Int("runs", 0, "run each workload this many times with consecutive seeds and summarize")
		spans   = flag.String("spans", "", "traced run's span file (default .bench_build/spans-<workload>.jsonl)")
	)
	flag.Parse()
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "benchmark: --trace must be 0 or 1")
		os.Exit(2)
	}
	if *runs > 0 {
		names := []string{*name}
		if *name == "" {
			names = names[:0]
			for _, w := range workloads {
				names = append(names, w.name)
			}
		}
		if err := multiRun(names, *runs, *seed, *seconds, *trace == 1, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(1)
		}
		return
	}
	res, err := run(runConfig{workload: *name, seed: *seed, seconds: *seconds, trace: *trace == 1, scale: 1, spans: *spans}, os.Stdout)
	if err == nil {
		var line []byte
		if line, err = json.Marshal(res); err == nil {
			fmt.Println(string(line))
			return
		}
	}
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(1)
}
