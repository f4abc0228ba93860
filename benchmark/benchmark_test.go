package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"testing"
)

// benchmarkJSON is the part of ../BENCHMARK.json the tests check.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestBenchmarkJSONMatchesHarness holds BENCHMARK.json and the harness's
// metric and workload tables in step.
func TestBenchmarkJSONMatchesHarness(t *testing.T) {
	b := loadBenchmarkJSON(t)
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, harness %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, harness %q", i, w.Name, workloads[i].name)
		}
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, harness %d", len(b.EndToEnd), len(endToEnd))
	}
	for i, m := range b.EndToEnd {
		d := endToEnd[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better || m.Bound != d.bound {
			t.Errorf("end-to-end %d: BENCHMARK.json %+v, harness %+v", i, m, d)
		}
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, harness %d", len(b.PerLayer), len(perLayer))
	}
	for i, m := range b.PerLayer {
		d := perLayer[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per-layer %d: BENCHMARK.json %+v, harness %+v", i, m, d)
		}
	}
}

// smokeRun runs one workload at 1/200 of its fixed work with one set-up.
func smokeRun(t *testing.T, name string, trace bool) *result {
	t.Helper()
	res, err := run(runConfig{
		workload: name, seed: 7, trace: trace, scale: 1.0 / 200, setups: 1,
		spans: filepath.Join(t.TempDir(), "spans.jsonl"),
	}, io.Discard)
	if err != nil {
		t.Fatalf("%s trace=%v: %v", name, trace, err)
	}
	return res
}

// TestSmoke runs every workload untraced and traced and checks that every
// metric BENCHMARK.json names is emitted, finite and in its unit, and
// that no operation failed.
func TestSmoke(t *testing.T) {
	b := loadBenchmarkJSON(t)
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			for _, trace := range []bool{false, true} {
				res := smokeRun(t, w.name, trace)
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Errorf("trace=%v: correct=%v failed=%d attempted=%d", trace, res.Correct, res.Failed, res.Attempted)
				}
				want := map[string]string{}
				if trace {
					for _, m := range b.PerLayer {
						want[m.Name] = m.Unit
					}
				} else {
					for _, m := range b.EndToEnd {
						want[m.Name] = m.Unit
					}
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("trace=%v: %d metrics emitted, want %d", trace, len(res.Metrics), len(want))
				}
				for name, unit := range want {
					v, ok := res.Metrics[name]
					switch {
					case !ok:
						t.Errorf("trace=%v: metric %s missing", trace, name)
					case v.Unit != unit:
						t.Errorf("trace=%v: metric %s unit %q, want %q", trace, name, v.Unit, unit)
					case math.IsNaN(v.Value) || math.IsInf(v.Value, 0):
						t.Errorf("trace=%v: metric %s = %v", trace, name, v.Value)
					case !trace && v.Value <= 0:
						t.Errorf("end-to-end metric %s = %v, want > 0", name, v.Value)
					}
				}
			}
		})
	}
}

// TestDeterministicSimMetrics runs paper-sync and fleet16 twice. paper-sync
// must repeat every sim metric exactly; fleet16, whose ring workers move
// a few calls' charges between neighbouring calls, must repeat its sim
// throughput within 10^-3.
func TestDeterministicSimMetrics(t *testing.T) {
	a, b := smokeRun(t, "paper-sync", false), smokeRun(t, "paper-sync", false)
	for _, m := range []string{"sim_calls_per_s", "sim_call_us_p50", "sim_call_us_p999"} {
		if a.Metrics[m] != b.Metrics[m] {
			t.Errorf("paper-sync %s: %v then %v", m, a.Metrics[m].Value, b.Metrics[m].Value)
		}
	}
	a, b = smokeRun(t, "fleet16", false), smokeRun(t, "fleet16", false)
	x, y := a.Metrics["sim_calls_per_s"].Value, b.Metrics["sim_calls_per_s"].Value
	if math.Abs(x-y) > 1e-3*x {
		t.Errorf("fleet16 sim_calls_per_s: %v then %v", x, y)
	}
}

func TestTailRule(t *testing.T) {
	cases := []struct {
		n    int64
		p    float64
		want bool
	}{
		{10_000, 0.999, true},
		{9_999, 0.999, false},
		{100_000, 0.999, true},
		{20, 0.5, true},
		{19, 0.5, false},
		{1, 0.5, false},
	}
	for _, c := range cases {
		if got := tailOK(c.n, c.p); got != c.want {
			t.Errorf("tailOK(%d, %v) = %v, want %v", c.n, c.p, got, c.want)
		}
	}
}

func TestHistQuantile(t *testing.T) {
	var h hist
	for v := int64(1); v <= 1000; v++ {
		h.add(v * 1000)
	}
	for _, c := range []struct {
		p    float64
		want int64
	}{{0.5, 500_000}, {0.999, 999_000}, {1, 1_000_000}} {
		got := h.quantile(c.p)
		if math.Abs(float64(got-c.want)) > 0.004*float64(c.want) {
			t.Errorf("quantile(%v) = %d, want %d within 0.4%%", c.p, got, c.want)
		}
	}
	var small hist
	for _, v := range []int64{3, 1, 2} {
		small.add(v)
	}
	if got := small.quantile(0.5); got != 2 {
		t.Errorf("exact small-value median = %d, want 2", got)
	}
}

// TestSegmentMedian checks the segment-rate median and the quartiles the
// -runs summary uses against Python's statistics.quantiles(n=4).
func TestSegmentMedian(t *testing.T) {
	if got := median([]float64{5, 1, 9, 3}); got != 4 {
		t.Errorf("median = %v, want 4", got)
	}
	if got := median([]float64{100, 1, 2}); got != 2 {
		t.Errorf("median with an outlier segment = %v, want 2", got)
	}
	// statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
	q := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q != [3]float64{2.75, 5.5, 8.25} {
		t.Errorf("quartiles = %v, want [2.75 5.5 8.25]", q)
	}
}
