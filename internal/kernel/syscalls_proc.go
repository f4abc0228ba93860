package kernel

import (
	"time"

	"anception/internal/abi"
	"anception/internal/sim"
)

// timesDuration multiplies a per-unit cost without overflow surprises.
func timesDuration(n int, per time.Duration) time.Duration {
	return time.Duration(n) * per
}

func (k *Kernel) sysUmask(t *Task, args Args) Result {
	t.mu.Lock()
	old := t.Umask
	t.Umask = args.Mode
	t.mu.Unlock()
	return Result{Ret: int64(old)}
}

func (k *Kernel) sysChdir(t *Task, args Args) Result {
	p := t.AbsPath(args.Path)
	st, err := k.fs.StatPath(t.Cred, p)
	if err != nil {
		return k.errResult(err)
	}
	if st.Type.String() != "d" {
		return k.errResult(abi.ENOTDIR)
	}
	t.mu.Lock()
	t.CWD = p
	t.mu.Unlock()
	return Result{}
}

func (k *Kernel) sysSetuid(t *Task, args Args) Result {
	// Only root may change UID (the simplified Linux rule that matters
	// for the Android model).
	if !t.Cred.Root() && t.Cred.UID != args.UID {
		return k.errResult(abi.EPERM)
	}
	t.mu.Lock()
	t.Cred.UID = args.UID
	t.mu.Unlock()
	return Result{}
}

func (k *Kernel) sysSetgid(t *Task, args Args) Result {
	if !t.Cred.Root() && t.Cred.GID != args.GID {
		return k.errResult(abi.EPERM)
	}
	t.mu.Lock()
	t.Cred.GID = args.GID
	t.mu.Unlock()
	return Result{}
}

func (k *Kernel) sysFork(t *Task, _ Args) Result {
	k.mu.Lock()
	pid := k.nextPID
	k.nextPID++
	child := newTask(pid, t.PID, t.Cred, t.Comm)
	child.Cred.PID = pid
	child.CWD = t.CWD
	child.Umask = t.Umask
	child.RE = t.RE
	child.ExecPath = t.ExecPath
	k.tasks[pid] = child
	k.mu.Unlock()

	// Duplicate the descriptor table (sharing open file descriptions).
	for fd, e := range t.FDs() {
		child.InstallFDAt(fd, e)
	}

	if t.AS != nil {
		as, err := t.AS.Clone(k.alloc, pid, k.Region())
		if err != nil {
			k.mu.Lock()
			delete(k.tasks, pid)
			k.mu.Unlock()
			return k.errResult(err)
		}
		child.AS = as
	}

	if k.trace != nil {
		k.trace.Record(sim.EvLifecycle, "[%s] fork pid=%d -> child=%d", k.name, t.PID, pid)
	}
	return Result{Ret: int64(pid)}
}

func (k *Kernel) sysExecve(t *Task, args Args) Result {
	p := t.AbsPath(args.Path)
	k.chargePathResolution(t, p)
	if err := k.fs.CheckAccess(t.Cred, p, abi.AccessExec|abi.AccessRead); err != nil {
		return k.errResult(err)
	}
	t.mu.Lock()
	t.ExecPath = p
	t.Comm = baseName(p)
	t.mu.Unlock()
	if k.trace != nil {
		k.trace.Record(sim.EvLifecycle, "[%s] exec pid=%d %s", k.name, t.PID, p)
	}
	return Result{}
}

func baseName(p string) string {
	for i := len(p) - 1; i >= 0; i-- {
		if p[i] == '/' {
			return p[i+1:]
		}
	}
	return p
}

func (k *Kernel) sysExit(t *Task, args Args) Result {
	t.mu.Lock()
	t.ExitCode = int(args.Size)
	t.mu.Unlock()
	t.SetState(TaskZombie)
	if t.AS != nil {
		t.AS.Release()
	}
	if k.trace != nil {
		k.trace.Record(sim.EvLifecycle, "[%s] exit pid=%d code=%d", k.name, t.PID, args.Size)
	}
	return Result{}
}

func (k *Kernel) sysWait4(t *Task, args Args) Result {
	k.mu.Lock()
	defer k.mu.Unlock()
	for pid, child := range k.tasks {
		if child.PPID != t.PID {
			continue
		}
		if args.TargetPID > 0 && pid != args.TargetPID {
			continue
		}
		if child.CurrentState() == TaskZombie {
			child.SetState(TaskDead)
			delete(k.tasks, pid)
			return Result{Ret: int64(pid), Data: []byte{byte(child.ExitCode)}}
		}
	}
	return k.errResult(abi.ECHILD)
}

func (k *Kernel) sysKill(t *Task, args Args) Result {
	k.mu.Lock()
	target := k.tasks[args.TargetPID]
	k.mu.Unlock()
	if target == nil || target.CurrentState() != TaskRunning {
		return k.errResult(abi.ESRCH)
	}
	if !t.Cred.Root() && t.Cred.UID != target.Cred.UID {
		return k.errResult(abi.EPERM)
	}
	switch args.Sig {
	case abi.SIGKILL:
		target.SetState(TaskDead)
		if target.AS != nil {
			target.AS.Release()
		}
	default:
		target.DeliverSignal(args.Sig)
	}
	if k.trace != nil {
		k.trace.Record(sim.EvLifecycle, "[%s] kill pid=%d sig=%d by=%d", k.name, args.TargetPID, args.Sig, t.PID)
	}
	return Result{}
}
