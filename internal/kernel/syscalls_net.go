package kernel

import (
	"slices"

	"anception/internal/abi"
	"anception/internal/netstack"
)

const vulnNullSendpage = netstack.VulnNullSendpage

func (k *Kernel) sysSocket(t *Task, args Args) Result {
	sock, err := k.net.Socket(t.Cred, args.Family, args.SockType, args.Proto)
	if err != nil {
		return k.errResult(err)
	}
	fd := t.InstallFD(FDEntry{Kind: FDSocket, Sock: sock})
	return Result{Ret: int64(fd), FD: fd}
}

func (k *Kernel) sockFD(t *Task, fd int) (*netstack.Socket, error) {
	e, ok := t.FD(fd)
	if !ok {
		return nil, abi.EBADF
	}
	if e.Kind != FDSocket {
		return nil, abi.ENOTSOCK
	}
	return e.Sock, nil
}

func (k *Kernel) sysBind(t *Task, args Args) Result {
	sock, err := k.sockFD(t, args.FD)
	if err != nil {
		return k.errResult(err)
	}
	if err := sock.Bind(args.Addr); err != nil {
		return k.errResult(err)
	}
	return Result{}
}

func (k *Kernel) sysConnect(t *Task, args Args) Result {
	sock, err := k.sockFD(t, args.FD)
	if err != nil {
		return k.errResult(err)
	}
	// Only a scripted remote endpoint pays the wide-area round trip;
	// loopback listeners and unix names connect at syscall cost, so a
	// local server handling 100k sessions is not 38 ms-per-connect.
	if k.net.IsRemote(args.Addr) {
		k.clock.Charge(t.Lane, k.model.NetworkRTT)
	}
	if err := sock.Connect(args.Addr); err != nil {
		return k.errResult(err)
	}
	return Result{}
}

func (k *Kernel) sysListen(t *Task, args Args) Result {
	sock, err := k.sockFD(t, args.FD)
	if err != nil {
		return k.errResult(err)
	}
	if err := sock.Listen(); err != nil {
		return k.errResult(err)
	}
	return Result{}
}

func (k *Kernel) sysAccept(t *Task, args Args) Result {
	sock, err := k.sockFD(t, args.FD)
	if err != nil {
		return k.errResult(err)
	}
	conn, err := sock.Accept()
	if err != nil {
		return k.errResult(err)
	}
	fd := t.InstallFD(FDEntry{Kind: FDSocket, Sock: conn})
	return Result{Ret: int64(fd), FD: fd}
}

// netBatch is the per-completion cap on batched accepted connections
// (anception.DefaultNetBatch): up to that many land in sysAccept4's
// stack array, a larger batch allocates.
const netBatch = 16

// sysAccept4 is the batched accept: it drains up to Args.Size pending
// connections (0 = all) in one call, installing a descriptor for each.
// The accepted fd list travels in the result Data so one redirected ring
// completion can carry N connections; it is appended to Args.Buf[:0],
// the caller's output storage, as sysRecv fills Args.Buf.
func (k *Kernel) sysAccept4(t *Task, args Args) Result {
	sock, err := k.sockFD(t, args.FD)
	if err != nil {
		return k.errResult(err)
	}
	var connArr [netBatch]*netstack.Socket
	conns, err := sock.AcceptBatch(connArr[:0], args.Size)
	if err != nil {
		return k.errResult(err)
	}
	list := slices.Grow(args.Buf[:0], 4*len(conns))
	for _, conn := range conns {
		list = abi.AppendFD(list, t.InstallFD(FDEntry{Kind: FDSocket, Sock: conn}))
	}
	return Result{Ret: int64(len(conns)), Data: list}
}

func (k *Kernel) sysSend(t *Task, args Args) Result {
	sock, err := k.sockFD(t, args.FD)
	if err != nil {
		return k.errResult(err)
	}
	k.chargeNet(t, len(args.Buf))
	if sock.Family == netstack.AFNetlink {
		if err := sock.SendToNetlink(sock.Proto, t.Cred, args.Buf); err != nil {
			return k.errResult(err)
		}
		return Result{Ret: int64(len(args.Buf))}
	}
	n, err := sock.Send(args.Buf)
	if err != nil {
		return k.errResult(err)
	}
	return Result{Ret: int64(n)}
}

func (k *Kernel) sysRecv(t *Task, args Args) Result {
	sock, err := k.sockFD(t, args.FD)
	if err != nil {
		return k.errResult(err)
	}
	k.chargeNet(t, len(args.Buf))
	n, err := sock.Recv(args.Buf)
	if err != nil {
		return k.errResult(err)
	}
	return Result{Ret: int64(n), Data: args.Buf[:n]}
}

func (k *Kernel) chargeNet(t *Task, n int) {
	k.clock.Charge(t.Lane, timesDuration(n, k.model.NetworkPerByte))
}
