package kernel

import (
	"sync"

	"anception/internal/abi"
)

// System V shared memory. Shared segments are app memory, so under
// Anception they are always serviced on the host (principle 3): the
// Anception layer routes shm calls to the host kernel even though the
// static table classifies IPC as redirect-class — the same dynamic
// override UI ioctls get. The paper's Section III-B: "our implementation
// supports shared memory and Android's custom Binder IPC".

// ShmSegment is one shared segment.
type ShmSegment struct {
	ID    int
	Key   int
	Pages int
	Owner abi.Cred
	runs  []FrameRun
	// attachments counts live mappings; a removed segment is reclaimed
	// when it drops to zero (IPC_RMID semantics, simplified).
	attachments int
	removed     bool
}

// shmState is the kernel's segment registry.
type shmState struct {
	mu       sync.Mutex
	nextID   int
	byID     map[int]*ShmSegment
	byKey    map[int]*ShmSegment
	kernAloc *Allocator
}

func (k *Kernel) shm() *shmState {
	k.mu.Lock()
	defer k.mu.Unlock()
	if k.shmReg == nil {
		k.shmReg = &shmState{
			nextID:   1,
			byID:     make(map[int]*ShmSegment),
			byKey:    make(map[int]*ShmSegment),
			kernAloc: k.alloc,
		}
	}
	return k.shmReg
}

// IPC_PRIVATE requests a fresh segment regardless of key.
const IPCPrivate = 0

// sysShmget creates or looks up a segment of args.Pages pages with key
// args.Size (keeping the generic Args field mapping: Size=key).
func (k *Kernel) sysShmget(t *Task, args Args) Result {
	reg := k.shm()
	reg.mu.Lock()
	defer reg.mu.Unlock()

	key := args.Size
	if key != IPCPrivate {
		if seg, ok := reg.byKey[key]; ok && !seg.removed {
			return Result{Ret: int64(seg.ID)}
		}
	}
	pages := args.Pages
	if pages <= 0 {
		return k.errResult(abi.EINVAL)
	}
	seg := &ShmSegment{ID: reg.nextID, Key: key, Pages: pages, Owner: t.Cred}
	reg.nextID++
	runs, err := reg.kernAloc.AllocN(t.PID, pages)
	if err != nil {
		return k.errResult(err)
	}
	seg.runs = runs
	reg.byID[seg.ID] = seg
	if key != IPCPrivate {
		reg.byKey[key] = seg
	}
	return Result{Ret: int64(seg.ID)}
}

// sysShmat attaches the segment (args.FD carries the shm id) into the
// caller's address space and returns the base address. All attachments
// share the segment's physical frames — that is the point.
func (k *Kernel) sysShmat(t *Task, args Args) Result {
	reg := k.shm()
	reg.mu.Lock()
	seg, ok := reg.byID[args.FD]
	if ok && !seg.removed {
		seg.attachments++
	}
	reg.mu.Unlock()
	if !ok || seg.removed {
		return k.errResult(abi.EINVAL)
	}
	if t.AS == nil {
		return k.errResult(abi.ENOMEM)
	}
	base, err := t.AS.MapShared(seg, ProtRead|ProtWrite, "shm")
	if err != nil {
		return k.errResult(err)
	}
	return Result{Ret: int64(base)}
}

// sysShmdt detaches the mapping at args.Vaddr.
func (k *Kernel) sysShmdt(t *Task, args Args) Result {
	if t.AS == nil {
		return k.errResult(abi.EINVAL)
	}
	if err := t.AS.UnmapShared(args.Vaddr); err != nil {
		return k.errResult(err)
	}
	return Result{}
}

// sysShmctl supports IPC_RMID (args.Request == 0 removes).
func (k *Kernel) sysShmctl(t *Task, args Args) Result {
	reg := k.shm()
	reg.mu.Lock()
	defer reg.mu.Unlock()
	seg, ok := reg.byID[args.FD]
	if !ok {
		return k.errResult(abi.EINVAL)
	}
	if !t.Cred.Root() && t.Cred.UID != seg.Owner.UID {
		return k.errResult(abi.EPERM)
	}
	seg.removed = true
	delete(reg.byKey, seg.Key)
	return Result{}
}

// ShmSegments reports live segments (diagnostics).
func (k *Kernel) ShmSegments() int {
	reg := k.shm()
	reg.mu.Lock()
	defer reg.mu.Unlock()
	n := 0
	for _, seg := range reg.byID {
		if !seg.removed {
			n++
		}
	}
	return n
}
