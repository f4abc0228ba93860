// Package redirect holds Anception's redirection table (Section III-D):
// the classification of the full 324-entry system-call table into
// redirected, host-only, split, and blocked classes, and the path rule
// that routes a path-named call. The layer's admission point
// (anception.Layer.admit) combines them into one route per call.
package redirect

import (
	"math"
	"strings"

	"anception/internal/abi"
)

// Class is the static classification of a system call (Section V-D).
type Class int

// Syscall classes.
const (
	// ClassRedirect calls are serviced by the CVM proxy (70.7%: file,
	// network, IPC).
	ClassRedirect Class = iota + 1
	// ClassHost calls always execute on the host (20.4%: process
	// control, signals, memory, scheduling).
	ClassHost
	// ClassSplit calls execute partly on both kernels (6.5%: fork,
	// exec, mmap, credential changes — the proxy must mirror them).
	ClassSplit
	// ClassBlocked calls are denied to apps outright (2.1%: module
	// loading, shutdown, ptrace).
	ClassBlocked
	// ClassUnused marks reserved/obsolete table slots.
	ClassUnused
)

// String names the class.
func (c Class) String() string {
	switch c {
	case ClassRedirect:
		return "redirect"
	case ClassHost:
		return "host"
	case ClassSplit:
		return "split"
	case ClassBlocked:
		return "blocked"
	case ClassUnused:
		return "unused"
	default:
		return "?"
	}
}

// Route is the dynamic decision for one specific invocation.
type Route int

// Routes.
const (
	RouteHost Route = iota + 1
	RouteGuest
	RouteSplit
	RouteBlocked
	// RouteKill ends the caller: Anception runs no sandboxed task as root
	// (Section III-C, footnote 3).
	RouteKill
)

// String names the route.
func (r Route) String() string {
	switch r {
	case RouteHost:
		return "host"
	case RouteGuest:
		return "guest"
	case RouteSplit:
		return "split"
	case RouteBlocked:
		return "blocked"
	case RouteKill:
		return "kill"
	default:
		return "?"
	}
}

// Classify returns the static class of a syscall by its conventional name
// (which abi.SyscallNr.String provides for implemented calls). Unknown
// names classify as redirect, the design's default posture: run as little
// as possible on the host.
func Classify(nr abi.SyscallNr) Class {
	if c, ok := classByName[nr.String()]; ok {
		return c
	}
	return ClassRedirect
}

// ClassOfName returns the class for a syscall name from the full table.
func ClassOfName(name string) (Class, bool) {
	c, ok := classByName[name]
	return c, ok
}

// DecideOpenPath routes an open() by pathname (Section III-D File I/O):
//
//   - /system/... is the read-only code partition kept on the host
//     (principle 1); reads of system binaries and libraries run there.
//   - /dev/binder is the UI/IPC channel and stays on the host.
//   - /proc/self/exe refers to the calling app's own code, which lives
//     on the host; other processes' /proc entries describe whatever
//     kernel services the call (the CVM's, under redirection).
//   - everything else — app data directories, general /proc state,
//     other device nodes — is redirected to the CVM.
func DecideOpenPath(path string) Route {
	switch {
	case path == "/dev/binder":
		return RouteHost
	case strings.HasPrefix(path, "/system/") || path == "/system":
		return RouteHost
	case path == "/proc/self/exe":
		return RouteHost
	default:
		return RouteGuest
	}
}

// Stats summarizes the static table for the Section V-D experiment.
type Stats struct {
	Total    int
	Redirect int
	Host     int
	Split    int
	Blocked  int
	Unused   int
}

// Percent returns a class share in percent rounded to one decimal. The
// paper reports 70.7 / 20.4 / 6.5 / 2.1; with counts 229/66/21/7 of 324
// the first three match under rounding and the last differs by the
// rounding direction only (7/324 = 2.16%).
func (s Stats) Percent(c Class) float64 {
	var n int
	switch c {
	case ClassRedirect:
		n = s.Redirect
	case ClassHost:
		n = s.Host
	case ClassSplit:
		n = s.Split
	case ClassBlocked:
		n = s.Blocked
	case ClassUnused:
		n = s.Unused
	}
	return math.Round(float64(n)/float64(s.Total)*1000) / 10
}

// TableStats counts the classification table.
func TableStats() Stats {
	var s Stats
	for _, c := range classByName {
		s.Total++
		switch c {
		case ClassRedirect:
			s.Redirect++
		case ClassHost:
			s.Host++
		case ClassSplit:
			s.Split++
		case ClassBlocked:
			s.Blocked++
		case ClassUnused:
			s.Unused++
		}
	}
	return s
}

// TableNames returns all classified syscall names (for inventory tests).
func TableNames() []string {
	out := make([]string, 0, len(classByName))
	for name := range classByName {
		out = append(out, name)
	}
	return out
}
