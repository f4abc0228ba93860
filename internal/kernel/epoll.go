package kernel

import (
	"slices"
	"sync"

	"anception/internal/abi"
	"anception/internal/netstack"
)

// Epoll op codes carried in Args.Flags (matching <sys/epoll.h>).
const (
	EpollCtlAdd = 1
	EpollCtlDel = 2
)

// Epoll is one epoll instance: an interest list of descriptor numbers.
// Readiness is computed at wait time from the socket's queues — the
// simulation is event-driven, so there is no callback plumbing; one
// epoll_wait call returns every ready descriptor at once, which is the
// batching the network fast path rides (one ring completion carries N
// readiness events).
type Epoll struct {
	mu      sync.Mutex
	watched []int
}

func (ep *Epoll) add(fd int) {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	for _, w := range ep.watched {
		if w == fd {
			return
		}
	}
	ep.watched = append(ep.watched, fd)
}

func (ep *Epoll) del(fd int) {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	for i, w := range ep.watched {
		if w == fd {
			ep.watched = append(ep.watched[:i], ep.watched[i+1:]...)
			return
		}
	}
}

func (k *Kernel) sysEpollCreate(t *Task, args Args) Result {
	fd := t.InstallFD(FDEntry{Kind: FDEpoll, Epoll: &Epoll{}, Path: "anon_inode:[eventpoll]"})
	return Result{Ret: int64(fd), FD: fd}
}

func (k *Kernel) epollFD(t *Task, fd int) (*Epoll, error) {
	e, ok := t.FD(fd)
	if !ok {
		return nil, abi.EBADF
	}
	if e.Kind != FDEpoll {
		return nil, abi.EINVAL
	}
	return e.Epoll, nil
}

func (k *Kernel) sysEpollCtl(t *Task, args Args) Result {
	ep, err := k.epollFD(t, args.FD)
	if err != nil {
		return k.errResult(err)
	}
	if _, ok := t.FD(args.FD2); !ok {
		return k.errResult(abi.EBADF)
	}
	switch int(args.Flags) {
	case EpollCtlAdd:
		ep.add(args.FD2)
	case EpollCtlDel:
		ep.del(args.FD2)
	default:
		return k.errResult(abi.EINVAL)
	}
	return Result{}
}

// sysEpollWait returns every currently-ready watched descriptor, up to
// Args.Size (0 = no limit), as an fd list in the result Data with the
// count in Ret; the list is appended to Args.Buf[:0], the caller's
// output storage, as sysAccept4's is. A watched descriptor that was
// closed leaves the interest list. A socket is ready when it has buffered messages, a non-empty
// accept backlog, or has been closed. No ready descriptor costs one
// scheduler quantum, like the other blocking calls. The epoll lock is
// held across the scan and the task's lock taken under it, never the
// other way round.
func (k *Kernel) sysEpollWait(t *Task, args Args) Result {
	ep, err := k.epollFD(t, args.FD)
	if err != nil {
		return k.errResult(err)
	}
	ready := args.Buf[:0]
	n := 0
	ep.mu.Lock()
	kept := ep.watched[:0]
	for i, fd := range ep.watched {
		if args.Size > 0 && n >= args.Size {
			kept = append(kept, ep.watched[i:]...)
			break
		}
		e, ok := t.FD(fd)
		if !ok {
			continue
		}
		kept = append(kept, fd)
		if e.Kind == FDSocket && socketReady(e.Sock) {
			if len(ready) == cap(ready) {
				ready = slices.Grow(ready, 4*len(ep.watched[i:]))
			}
			ready = abi.AppendFD(ready, fd)
			n++
		}
	}
	ep.watched = kept
	ep.mu.Unlock()
	if n == 0 {
		k.clock.Charge(t.Lane, k.model.SchedulerQuantum)
		return Result{}
	}
	return Result{Ret: int64(n), Data: ready}
}

func socketReady(sk *netstack.Socket) bool {
	if sk == nil {
		return false
	}
	return sk.Pending() > 0 || sk.Backlog() > 0 || sk.State() == netstack.StateClosed
}
