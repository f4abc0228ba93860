package sim

import (
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestClockStartsAtZero(t *testing.T) {
	c := NewClock()
	if got := c.Now(); got != 0 {
		t.Fatalf("Now() = %v, want 0", got)
	}
}

func TestClockAdvance(t *testing.T) {
	c := NewClock()
	if got := c.Advance(5 * time.Microsecond); got != 5*time.Microsecond {
		t.Fatalf("Advance returned %v, want 5us", got)
	}
	c.Advance(3 * time.Nanosecond)
	if got := c.Now(); got != 5*time.Microsecond+3*time.Nanosecond {
		t.Fatalf("Now() = %v", got)
	}
}

func TestClockIgnoresNegativeAdvance(t *testing.T) {
	c := NewClock()
	c.Advance(time.Second)
	c.Advance(-time.Hour)
	if got := c.Now(); got != time.Second {
		t.Fatalf("Now() = %v, want 1s (negative advance must be ignored)", got)
	}
}

func TestClockMonotonicProperty(t *testing.T) {
	c := NewClock()
	prev := c.Now()
	f := func(d int32) bool {
		c.Advance(time.Duration(d))
		now := c.Now()
		ok := now >= prev
		prev = now
		return ok
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestStopwatch(t *testing.T) {
	c := NewClock()
	c.Advance(time.Millisecond)
	sw := StartStopwatch(c)
	c.Advance(42 * time.Microsecond)
	if got := sw.Elapsed(); got != 42*time.Microsecond {
		t.Fatalf("Elapsed() = %v, want 42us", got)
	}
}

// TestSpanCountsOwnAndUnattributedCharges: a span's elapsed time is its
// own lane's charges plus unattributed ones; charges to another lane
// advance the shared clock but are not the span's.
func TestSpanCountsOwnAndUnattributedCharges(t *testing.T) {
	c := NewClock()
	var mine, other Lane
	c.Advance(time.Second)
	s := c.StartSpan(&mine)
	c.Charge(&mine, 3*time.Microsecond)
	c.Charge(&other, time.Hour)
	c.Advance(5 * time.Microsecond)
	c.Charge(nil, 7*time.Microsecond)
	if got, want := s.Elapsed(), 15*time.Microsecond; got != want {
		t.Fatalf("span elapsed = %v, want %v", got, want)
	}
	if got, want := c.Now(), time.Second+time.Hour+15*time.Microsecond; got != want {
		t.Fatalf("clock = %v, want %v: lanes must not change the device clock", got, want)
	}
	// A span with no lane owns only the unattributed charges.
	dev := c.StartSpan(nil)
	c.Charge(&mine, time.Millisecond)
	c.Advance(2 * time.Microsecond)
	if got, want := dev.Elapsed(), 2*time.Microsecond; got != want {
		t.Fatalf("laneless span elapsed = %v, want %v", got, want)
	}
	c.Charge(&other, -time.Second)
	if got, want := s.Elapsed(), 15*time.Microsecond+time.Millisecond+2*time.Microsecond; got != want {
		t.Fatalf("negative charge moved the span: %v, want %v", got, want)
	}
}

func TestMicrosecondsFormat(t *testing.T) {
	if got := Microseconds(28610 * time.Nanosecond); got != "28.61 us" {
		t.Fatalf("Microseconds = %q", got)
	}
}

func TestDefaultModelAnchorsTableINative(t *testing.T) {
	m := DefaultLatencyModel()
	// Table I native column: getpid 0.76 us, write 28.61 us, read 6.51 us.
	if got := m.SyscallEntry; got != 760*time.Nanosecond {
		t.Errorf("SyscallEntry = %v, want 760ns", got)
	}
	if got := m.SyscallEntry + m.StorageWritePerPage; got != 28610*time.Nanosecond {
		t.Errorf("native 4096B write = %v, want 28.61us", got)
	}
	if got := m.SyscallEntry + m.StorageReadPerPage; got != 6510*time.Nanosecond {
		t.Errorf("native 4096B read = %v, want 6.51us", got)
	}
}

func TestRedirectFixedCostComposition(t *testing.T) {
	m := DefaultLatencyModel()
	want := 2*m.WorldSwitch + m.ProxyDispatch
	if got := m.RedirectFixedCost(); got != want {
		t.Fatalf("RedirectFixedCost = %v, want %v", got, want)
	}
	if m.NaiveRedirectFixedCost() <= m.RedirectFixedCost() {
		t.Fatal("naive dispatch must cost more than the in-kernel proxy wait")
	}
	if diff := m.NaiveRedirectFixedCost() - m.RedirectFixedCost(); diff != 4*m.GuestContextSwitch {
		t.Fatalf("naive dispatch should add exactly 4 guest context switches, added %v", diff)
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(7), NewRNG(7)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("sequences diverged at step %d", i)
		}
	}
}

func TestRNGSeedsDiffer(t *testing.T) {
	a, b := NewRNG(1), NewRNG(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds produced %d/100 identical values", same)
	}
}

func TestRNGIntnRange(t *testing.T) {
	r := NewRNG(3)
	f := func(n uint8) bool {
		bound := int(n%100) + 1
		v := r.Intn(bound)
		return v >= 0 && v < bound
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRNGIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(11)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64() = %v out of [0,1)", v)
		}
	}
}

func TestRNGBytesFills(t *testing.T) {
	r := NewRNG(5)
	b := make([]byte, 33)
	r.Bytes(b)
	zero := 0
	for _, x := range b {
		if x == 0 {
			zero++
		}
	}
	if zero > 8 {
		t.Fatalf("suspiciously many zero bytes: %d/33", zero)
	}
}

func TestRNGForkIndependence(t *testing.T) {
	parent := NewRNG(9)
	child := parent.Fork()
	// The child must not replay the parent's stream.
	p, c := parent.Uint64(), child.Uint64()
	if p == c {
		t.Fatal("forked stream mirrors parent")
	}
}

func TestTraceRecordsAndCounts(t *testing.T) {
	c := NewClock()
	tr := NewTrace(c)
	tr.Record(EvSyscall, "open %q", "/data/x")
	c.Advance(time.Microsecond)
	tr.Record(EvRedirect, "write fd=%d", 3)
	if got := tr.Count(EvSyscall); got != 1 {
		t.Fatalf("Count(EvSyscall) = %d", got)
	}
	evs := tr.Events()
	if len(evs) != 2 {
		t.Fatalf("len(events) = %d", len(evs))
	}
	if evs[1].At != time.Microsecond {
		t.Fatalf("second event stamped %v, want 1us", evs[1].At)
	}
	if got := tr.Matching("open"); len(got) != 1 {
		t.Fatalf("Matching(open) = %v", got)
	}
}

func TestNilTraceIsSafe(t *testing.T) {
	var tr *Trace
	tr.Record(EvSyscall, "dropped")
	if tr.Count(EvSyscall) != 0 {
		t.Fatal("nil trace counted an event")
	}
	if tr.Events() != nil {
		t.Fatal("nil trace returned events")
	}
	tr.Reset()
}

func TestTraceReset(t *testing.T) {
	tr := NewTrace(NewClock())
	tr.Record(EvBinder, "txn")
	tr.Reset()
	if tr.Count(EvBinder) != 0 || len(tr.Events()) != 0 {
		t.Fatal("Reset did not clear trace")
	}
}

func TestEventKindString(t *testing.T) {
	cases := map[EventKind]string{
		EvSyscall:     "syscall",
		EvRedirect:    "redirect",
		EvWorldSwitch: "worldswitch",
		EvBinder:      "binder",
		EvExploit:     "exploit",
		EvSecurity:    "security",
		EvLifecycle:   "lifecycle",
		EventKind(99): "kind(99)",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int(k), got, want)
		}
	}
}

func TestTraceDumpContainsKindAndMessage(t *testing.T) {
	tr := NewTrace(NewClock())
	tr.Record(EvSecurity, "blocked ptrace")
	dump := tr.Dump()
	for _, want := range []string{"security", "blocked ptrace"} {
		if !strings.Contains(dump, want) {
			t.Errorf("Dump() missing %q:\n%s", want, dump)
		}
	}
}
