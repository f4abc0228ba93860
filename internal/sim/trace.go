package sim

import (
	"fmt"
	"strings"
	"sync"
	"time"
)

// EventKind classifies trace events.
type EventKind int

// Event kinds recorded by the tracer.
const (
	EvSyscall EventKind = iota + 1
	EvRedirect
	EvWorldSwitch
	EvBinder
	EvExploit
	EvSecurity
	EvLifecycle
	// EvFault marks a deliberately injected failure (fault drill).
	EvFault
	// EvTimeout marks a redirected call abandoned at its deadline.
	EvTimeout
	// EvWatchdog marks supervisor activity: heartbeat probes, detections,
	// restarts, circuit-breaker transitions.
	EvWatchdog
	// EvCache marks redirection-cache activity: read-ahead fetches,
	// coalesced-write flushes, and invalidations.
	EvCache
	// EvRing marks async ring-transport activity: doorbell injections
	// (one interrupt covering every slot submitted since the last reap),
	// completion reaps, and boot-generation re-arms after a CVM restart.
	EvRing
	// EvGrant marks zero-copy grant-table activity: extent maps, revokes
	// (TLB shootdowns), restart-time revoke-all sweeps, and stale-grant
	// rejections.
	EvGrant
	// EvBinderSession marks binder fast-path activity: persistent-session
	// opens, reply-cache hits and invalidations, and restart-time session
	// drains.
	EvBinderSession
	// EvSnapshot marks hypervisor snapshot/restore activity: periodic
	// copy-on-write checkpoints, restores (with the frame counts that set
	// their cost) and checksum rejections.
	EvSnapshot
)

// String returns the short label used in trace dumps.
func (k EventKind) String() string {
	switch k {
	case EvSyscall:
		return "syscall"
	case EvRedirect:
		return "redirect"
	case EvWorldSwitch:
		return "worldswitch"
	case EvBinder:
		return "binder"
	case EvExploit:
		return "exploit"
	case EvSecurity:
		return "security"
	case EvLifecycle:
		return "lifecycle"
	case EvFault:
		return "fault"
	case EvTimeout:
		return "timeout"
	case EvWatchdog:
		return "watchdog"
	case EvCache:
		return "cache"
	case EvRing:
		return "ring"
	case EvGrant:
		return "grant"
	case EvBinderSession:
		return "bindersession"
	case EvSnapshot:
		return "snapshot"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Event is one recorded occurrence in the simulation.
type Event struct {
	At   time.Duration
	Kind EventKind
	Msg  string
}

// Trace collects events for inspection by tests, the exploit lab, and the
// CLI. The zero value is a disabled trace that drops events; use NewTrace
// for a recording one. All methods are safe for concurrent use.
type Trace struct {
	mu      sync.Mutex
	enabled bool
	clock   *Clock
	events  []Event
	counts  map[EventKind]int
}

// NewTrace returns a recording trace bound to the given clock.
func NewTrace(clock *Clock) *Trace {
	return &Trace{enabled: true, clock: clock, counts: make(map[EventKind]int)}
}

// Record appends an event stamped with the current simulated time.
func (t *Trace) Record(kind EventKind, format string, args ...any) {
	if t == nil || !t.enabled {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.events = append(t.events, Event{At: t.clock.Now(), Kind: kind, Msg: fmt.Sprintf(format, args...)})
	t.counts[kind]++
}

// Count reports how many events of a kind were recorded.
func (t *Trace) Count(kind EventKind) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.counts[kind]
}

// Events returns a copy of all recorded events in order.
func (t *Trace) Events() []Event {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Event, len(t.events))
	copy(out, t.events)
	return out
}

// Matching returns the messages of events whose text contains substr.
func (t *Trace) Matching(substr string) []string {
	var out []string
	for _, e := range t.Events() {
		if strings.Contains(e.Msg, substr) {
			out = append(out, e.Msg)
		}
	}
	return out
}

// Dump renders the trace as one line per event.
func (t *Trace) Dump() string {
	var b strings.Builder
	for _, e := range t.Events() {
		fmt.Fprintf(&b, "%12s %-11s %s\n", e.At, e.Kind, e.Msg)
	}
	return b.String()
}

// Reset discards all recorded events.
func (t *Trace) Reset() {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.events = nil
	t.counts = make(map[EventKind]int)
}
