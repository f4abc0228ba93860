// Package netstack implements the simulated network stack: INET stream and
// datagram sockets (loopback plus scripted remote endpoints), Unix domain
// sockets, and netlink channels used by Android's privileged daemons.
//
// The stack also carries the *vulnerability surface* of the kernel network
// code that Section V studies: socket families can be flagged with known
// historical bugs (e.g. the NULL proto_ops sendpage of CVE-2009-2692) that
// the kernel layer consults when executing calls.
package netstack

import (
	"fmt"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"

	"anception/internal/abi"
)

// Family is a socket address family.
type Family int

// Address families used by the simulation.
const (
	AFInet Family = iota + 1
	AFUnix
	AFNetlink
	AFBluetooth
)

// String names the family as in <sys/socket.h>.
func (f Family) String() string {
	switch f {
	case AFInet:
		return "AF_INET"
	case AFUnix:
		return "AF_UNIX"
	case AFNetlink:
		return "AF_NETLINK"
	case AFBluetooth:
		return "PF_BLUETOOTH"
	default:
		return fmt.Sprintf("AF(%d)", int(f))
	}
}

// SockType distinguishes stream and datagram sockets.
type SockType int

// Socket types.
const (
	SockStream SockType = iota + 1
	SockDgram
)

// String names the type.
func (t SockType) String() string {
	if t == SockStream {
		return "SOCK_STREAM"
	}
	return "SOCK_DGRAM"
}

// Cred mirrors vfs.Cred for the network layer.
type Cred = abi.Cred

// RemoteHandler simulates a remote server (e.g. the bank backend): it
// receives request bytes and returns response bytes. req is valid only
// while the handler runs: it is a recycled receive buffer, so a handler
// that keeps the bytes copies them. The handler may return req itself or
// a prefix of it (an echo); any other response must not share req's
// memory.
type RemoteHandler func(req []byte) []byte

// NetlinkReceiver is the daemon-side handler of a netlink protocol. It
// receives the sender's credentials and the message; vold's GingerBreak bug
// lives behind one of these.
type NetlinkReceiver func(sender Cred, msg []byte) error

// VulnFlag marks a historical kernel bug present in the simulated stack.
type VulnFlag int

// Known stack vulnerabilities.
const (
	// VulnNullSendpage models CVE-2009-2692: the proto_ops of certain
	// socket families left sendpage NULL, so sendfile() on such a socket
	// makes the kernel jump through a NULL function pointer — i.e. to
	// whatever the attacker mapped at virtual page zero.
	VulnNullSendpage VulnFlag = iota + 1
)

// State tracks the lifecycle of a socket.
type State int

// Socket states.
const (
	StateNew State = iota + 1
	StateBound
	StateListening
	StateConnected
	StateClosed
)

// DefaultRcvBudget is the SO_RCVBUF-style byte budget of a socket's
// receive queue. An open-loop sender used to grow recvq without limit;
// now a full stream queue pushes EAGAIN back at the sender and a full
// datagram queue drops (counted), like a real kernel.
const DefaultRcvBudget = 256 << 10

// Socket is one endpoint.
type Socket struct {
	stack  *Stack
	Family Family
	Type   SockType
	Proto  int

	mu        sync.Mutex
	state     State
	localAddr string
	peerAddr  string
	peer      *Socket
	remote    RemoteHandler
	// recvq[rqHead:] are the queued messages, oldest first. It starts on
	// rxInline, so a socket that never queues two messages at once never
	// allocates a queue.
	recvq     []rxMsg
	rxInline  [1]rxMsg
	rqHead    int
	rcvBytes  int
	rcvBudget int
	backlog   []*Socket
	vuln      VulnFlag // the one bug its family and type carry; 0 is none
	owner     Cred

	// policyGen records the stack generation whose ConnectPolicy vetted
	// this socket's outbound connect; policyChecked marks sockets that
	// went through Connect (server-side accept halves are exempt). When
	// the stack generation rolls (CVM restart), the next Send/Recv
	// re-runs the then-current policy so a firewall swapped in by the
	// supervisor applies to resurrected sockets too.
	policyGen     uint64
	policyChecked bool
}

// rxMsg is one queued message: buf[off:] is still unread. A pooled buf
// came from the stack's free list and goes back when fully read.
type rxMsg struct {
	buf    []byte
	off    int
	pooled bool
}

// ConnectPolicy may veto outbound connections. The host installs one on
// the CVM's stack to firewall the container's external connectivity
// ("the CVM's external connectivity can be controlled from the host by
// firewall rules", Section III-D).
type ConnectPolicy func(cred Cred, addr string) error

// Stack is one kernel's network stack.
type Stack struct {
	mu        sync.Mutex
	name      string
	remotes   map[string]RemoteHandler
	listeners map[string]*Socket
	unixNames map[string]*Socket
	netlinks  map[int]netlinkEntry
	vulnByKey map[sockKey]VulnFlag
	policy    ConnectPolicy
	rx        rxPool

	// generation is the CVM boot generation this stack is serving;
	// rolling it invalidates every socket's connect-time policy check.
	generation atomic.Uint64
	// dgramDrops counts datagrams dropped because the receiver's budget
	// was full.
	dgramDrops atomic.Int64
}

type netlinkEntry struct {
	receiver NetlinkReceiver
	// worldSendable models the GingerBreak misconfiguration: the channel
	// accepts messages from any UID instead of only root/system.
	worldSendable bool
}

// New returns an empty stack labeled with the owning kernel's name.
func New(name string) *Stack {
	return &Stack{
		name:      name,
		remotes:   make(map[string]RemoteHandler),
		listeners: make(map[string]*Socket),
		unixNames: make(map[string]*Socket),
		netlinks:  make(map[int]netlinkEntry),
		vulnByKey: make(map[sockKey]VulnFlag),
	}
}

// Name returns the stack's label ("host" or "cvm").
func (s *Stack) Name() string { return s.name }

// RegisterRemote installs a scripted remote server reachable at addr
// (host:port form).
func (s *Stack) RegisterRemote(addr string, h RemoteHandler) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.remotes[addr] = h
}

// RegisterNetlink installs the daemon-side receiver for a netlink protocol
// number. worldSendable re-creates the permission misconfiguration that
// GingerBreak exploited.
func (s *Stack) RegisterNetlink(proto int, recv NetlinkReceiver, worldSendable bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.netlinks[proto] = netlinkEntry{receiver: recv, worldSendable: worldSendable}
}

// SetConnectPolicy installs (or clears, with nil) the outbound firewall.
func (s *Stack) SetConnectPolicy(p ConnectPolicy) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.policy = p
}

// SetGeneration rolls the stack to a new CVM boot generation. Sockets
// vetted by an older generation's ConnectPolicy re-run the current
// policy on their next Send/Recv.
func (s *Stack) SetGeneration(gen uint64) { s.generation.Store(gen) }

// Generation returns the stack's current boot generation.
func (s *Stack) Generation() uint64 { return s.generation.Load() }

// DgramDrops returns the count of datagrams dropped at full receive
// budgets.
func (s *Stack) DgramDrops() int64 { return s.dgramDrops.Load() }

// IsRemote reports whether addr names a scripted remote endpoint (as
// opposed to a loopback listener or unix name). The kernel charges the
// wide-area NetworkRTT only for these.
func (s *Stack) IsRemote(addr string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.remotes[addr]
	return ok
}

// NetlinkProtocols lists the registered netlink protocol numbers in
// ascending order; the kernel synthesizes /proc/net/netlink from it.
func (s *Stack) NetlinkProtocols() []int {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]int, 0, len(s.netlinks))
	for proto := range s.netlinks {
		out = append(out, proto)
	}
	sort.Ints(out)
	return out
}

// InjectVulnerability marks sockets of the given family/type as carrying a
// historical kernel bug.
func (s *Stack) InjectVulnerability(f Family, t SockType, v VulnFlag) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.vulnByKey[sockKey{f, t}] = v
}

// sockKey names the sockets of one family and type.
type sockKey struct {
	f Family
	t SockType
}

// Socket creates a new socket owned by cred.
func (s *Stack) Socket(cred Cred, f Family, t SockType, proto int) (*Socket, error) {
	if f == 0 || t == 0 {
		return nil, abi.EINVAL
	}
	sock := &Socket{
		stack:     s,
		Family:    f,
		Type:      t,
		Proto:     proto,
		state:     StateNew,
		rcvBudget: DefaultRcvBudget,
		owner:     cred,
	}
	s.mu.Lock()
	sock.vuln = s.vulnByKey[sockKey{f, t}]
	s.mu.Unlock()
	return sock, nil
}

// HasVulnerability reports whether the socket carries a flagged kernel bug.
func (sk *Socket) HasVulnerability(v VulnFlag) bool {
	sk.mu.Lock()
	defer sk.mu.Unlock()
	return v != 0 && sk.vuln == v
}

// Owner returns the creating credentials.
func (sk *Socket) Owner() Cred { return sk.owner }

// SetRcvBuf adjusts the receive-queue byte budget (SO_RCVBUF). A
// non-positive size restores the default.
func (sk *Socket) SetRcvBuf(n int) {
	sk.mu.Lock()
	defer sk.mu.Unlock()
	if n <= 0 {
		n = DefaultRcvBudget
	}
	sk.rcvBudget = n
}

// State returns the socket state.
func (sk *Socket) State() State {
	sk.mu.Lock()
	defer sk.mu.Unlock()
	return sk.state
}

// Bind attaches a local address: "host:port" for INET, a filesystem-style
// name for Unix sockets, or the protocol number (ignored address) for
// netlink.
func (sk *Socket) Bind(addr string) error {
	sk.mu.Lock()
	defer sk.mu.Unlock()
	if sk.state != StateNew {
		return abi.EINVAL
	}
	s := sk.stack
	s.mu.Lock()
	defer s.mu.Unlock()
	switch sk.Family {
	case AFInet:
		if _, taken := s.listeners[addr]; taken {
			return abi.EADDRINUSE
		}
	case AFUnix:
		if _, taken := s.unixNames[addr]; taken {
			return abi.EADDRINUSE
		}
		s.unixNames[addr] = sk
	}
	sk.localAddr = addr
	sk.state = StateBound
	return nil
}

// Listen marks a bound stream socket as accepting connections.
func (sk *Socket) Listen() error {
	sk.mu.Lock()
	defer sk.mu.Unlock()
	if sk.Type != SockStream {
		return abi.EOPNOTSUPP
	}
	if sk.state != StateBound {
		return abi.EINVAL
	}
	sk.state = StateListening
	s := sk.stack
	s.mu.Lock()
	if sk.Family == AFInet {
		s.listeners[sk.localAddr] = sk
	}
	s.mu.Unlock()
	return nil
}

// Accept dequeues one pending connection; EAGAIN if none is waiting (the
// simulation is event-driven, not blocking).
func (sk *Socket) Accept() (*Socket, error) {
	var one [1]*Socket
	conns, err := sk.AcceptBatch(one[:0], 1)
	if err != nil {
		return nil, err
	}
	return conns[0], nil
}

// AcceptBatch appends up to max pending connections to dst in one call,
// oldest first, and returns the extended slice — the netstack half of
// batched accept4, where one ring completion carries N accepted
// connections. EAGAIN when the backlog is empty; max <= 0 means "all of
// them". The rest of the backlog slides to the front of its array, so
// the next Connect appends without allocating.
func (sk *Socket) AcceptBatch(dst []*Socket, max int) ([]*Socket, error) {
	sk.mu.Lock()
	defer sk.mu.Unlock()
	if sk.state != StateListening {
		return dst, abi.EINVAL
	}
	if len(sk.backlog) == 0 {
		return dst, abi.EAGAIN
	}
	n := len(sk.backlog)
	if max > 0 && max < n {
		n = max
	}
	dst = append(dst, sk.backlog[:n]...)
	rest := copy(sk.backlog, sk.backlog[n:])
	clear(sk.backlog[rest:])
	sk.backlog = sk.backlog[:rest]
	return dst, nil
}

// Backlog reports the number of connections waiting to be accepted.
func (sk *Socket) Backlog() int {
	sk.mu.Lock()
	defer sk.mu.Unlock()
	return len(sk.backlog)
}

// Connect attaches the socket to a remote address: a scripted remote, a
// local listener, or a bound unix socket.
func (sk *Socket) Connect(addr string) error {
	sk.mu.Lock()
	if sk.state == StateConnected {
		sk.mu.Unlock()
		return abi.EINVAL
	}
	sk.mu.Unlock()

	s := sk.stack
	s.mu.Lock()
	policy := s.policy
	s.mu.Unlock()
	if policy != nil {
		if err := policy(sk.owner, addr); err != nil {
			return err
		}
	}
	s.mu.Lock()
	remote, isRemote := s.remotes[addr]
	var listener *Socket
	var unixPeer *Socket
	switch sk.Family {
	case AFInet:
		listener = s.listeners[addr]
	case AFUnix:
		unixPeer = s.unixNames[addr]
	}
	s.mu.Unlock()

	gen := s.generation.Load()
	switch {
	case isRemote:
		sk.mu.Lock()
		sk.remote = remote
		sk.peerAddr = addr
		sk.state = StateConnected
		sk.policyGen, sk.policyChecked = gen, true
		sk.mu.Unlock()
		return nil
	case listener != nil:
		serverSide := &Socket{
			stack: s, Family: sk.Family, Type: sk.Type, Proto: sk.Proto,
			state: StateConnected, peerAddr: "client",
			owner: listener.owner, rcvBudget: DefaultRcvBudget,
		}
		sk.mu.Lock()
		sk.peer = serverSide
		sk.peerAddr = addr
		sk.state = StateConnected
		sk.policyGen, sk.policyChecked = gen, true
		sk.mu.Unlock()
		serverSide.peer = sk
		listener.mu.Lock()
		listener.backlog = append(listener.backlog, serverSide)
		listener.mu.Unlock()
		return nil
	case unixPeer != nil:
		serverSide := &Socket{
			stack: s, Family: sk.Family, Type: sk.Type, Proto: sk.Proto,
			state: StateConnected, peerAddr: "client",
			owner: unixPeer.owner, rcvBudget: DefaultRcvBudget,
		}
		sk.mu.Lock()
		sk.peer = serverSide
		sk.peerAddr = addr
		sk.state = StateConnected
		sk.policyGen, sk.policyChecked = gen, true
		sk.mu.Unlock()
		serverSide.peer = sk
		unixPeer.mu.Lock()
		unixPeer.backlog = append(unixPeer.backlog, serverSide)
		unixPeer.mu.Unlock()
		return nil
	default:
		return abi.ENETUNREACH
	}
}

// recheckPolicy re-runs the stack's ConnectPolicy against a socket whose
// connect-time check predates the current boot generation. A policy the
// supervisor swapped in around a CVM restart thereby applies to sockets
// that survived (or were resurrected across) the restart, not just to
// new connects.
func (sk *Socket) recheckPolicy() error {
	s := sk.stack
	gen := s.generation.Load()
	sk.mu.Lock()
	if !sk.policyChecked || sk.policyGen == gen {
		sk.mu.Unlock()
		return nil
	}
	owner, addr := sk.owner, sk.peerAddr
	sk.mu.Unlock()

	s.mu.Lock()
	policy := s.policy
	s.mu.Unlock()
	if policy != nil {
		if err := policy(owner, addr); err != nil {
			return err
		}
	}
	sk.mu.Lock()
	sk.policyGen = gen
	sk.mu.Unlock()
	return nil
}

// Send transmits data on a connected socket. For scripted remotes the
// response is queued for the next Recv. Peer delivery honors the
// receiver's byte budget: a full stream queue pushes EAGAIN back at the
// sender (backpressure), a full datagram queue drops the message and
// counts it — so an open-loop sender cannot grow recvq without bound.
func (sk *Socket) Send(data []byte) (int, error) {
	if err := sk.recheckPolicy(); err != nil {
		return 0, err
	}
	sk.mu.Lock()
	if sk.state != StateConnected {
		sk.mu.Unlock()
		return 0, abi.EPIPE
	}
	remote := sk.remote
	peer := sk.peer
	sk.mu.Unlock()

	switch {
	case remote != nil:
		req, pooled := sk.stack.rx.get(len(data))
		copy(req, data)
		resp := remote(req)
		// An echo of the request, whole or a prefix, rides the request's
		// buffer and goes back to the free list when read. Any other
		// response belongs to the handler and is never recycled; if it
		// shares the request's memory some other way, neither is. A slice
		// of req ends where req's backing array ends (the contract rules
		// out a three-index slice), and one that also has req's capacity
		// starts where req starts.
		echo := false
		if pooled {
			shared := cap(resp) > 0 && &resp[:cap(resp)][cap(resp)-1] == &req[:cap(req)][cap(req)-1]
			echo = shared && cap(resp) == cap(req)
			if !shared {
				sk.stack.rx.put(req)
			}
		}
		sk.mu.Lock()
		if resp != nil {
			// Responses to the socket's own request are never dropped —
			// the app asked for these bytes — but they still count
			// against the budget so backpressure sees them.
			sk.pushLocked(rxMsg{buf: resp, pooled: echo})
			sk.rcvBytes += len(resp)
		}
		sk.mu.Unlock()
		return len(data), nil
	case peer != nil:
		peer.mu.Lock()
		if peer.rcvBytes+len(data) > peer.rcvBudget {
			dgram := peer.Type == SockDgram
			peer.mu.Unlock()
			if dgram {
				sk.stack.dgramDrops.Add(1)
				return len(data), nil
			}
			return 0, abi.EAGAIN
		}
		buf, pooled := peer.stack.rx.get(len(data))
		copy(buf, data)
		peer.pushLocked(rxMsg{buf: buf, pooled: pooled})
		peer.rcvBytes += len(data)
		peer.mu.Unlock()
		return len(data), nil
	default:
		return 0, abi.EPIPE
	}
}

// SendToNetlink delivers a datagram to the netlink protocol's registered
// daemon. Non-root senders are rejected unless the channel was (mis-)
// configured as world-sendable.
func (sk *Socket) SendToNetlink(proto int, sender Cred, msg []byte) error {
	if sk.Family != AFNetlink {
		return abi.EOPNOTSUPP
	}
	s := sk.stack
	s.mu.Lock()
	entry, ok := s.netlinks[proto]
	s.mu.Unlock()
	if !ok {
		return abi.ENETUNREACH
	}
	if !entry.worldSendable && sender.UID != abi.UIDRoot && sender.UID != abi.UIDSystem {
		return abi.EPERM
	}
	return entry.receiver(sender, msg)
}

// Recv dequeues one buffered message; EAGAIN when empty. Consumed bytes
// are released back to the receive budget. A stream read that leaves part
// of a message keeps the rest queued; a datagram is consumed whole (the
// part p cannot hold is discarded).
func (sk *Socket) Recv(p []byte) (int, error) {
	if err := sk.recheckPolicy(); err != nil {
		return 0, err
	}
	sk.mu.Lock()
	defer sk.mu.Unlock()
	if sk.state == StateClosed {
		return 0, abi.EBADF
	}
	if sk.rqHead == len(sk.recvq) {
		return 0, abi.EAGAIN
	}
	msg := &sk.recvq[sk.rqHead]
	rest := len(msg.buf) - msg.off
	n := copy(p, msg.buf[msg.off:])
	if sk.Type == SockStream && n < rest {
		msg.off += n
		sk.rcvBytes -= n
	} else {
		sk.popLocked()
		sk.rcvBytes -= rest
	}
	if sk.rcvBytes < 0 {
		sk.rcvBytes = 0
	}
	return n, nil
}

// pushLocked queues one message at the tail. When the backing array is
// full and at least half of it is already consumed, the queue slides down
// instead of growing.
func (sk *Socket) pushLocked(m rxMsg) {
	if sk.recvq == nil {
		sk.recvq = sk.rxInline[:0]
	}
	if len(sk.recvq) == cap(sk.recvq) && sk.rqHead > 0 && 2*sk.rqHead >= len(sk.recvq) {
		n := copy(sk.recvq, sk.recvq[sk.rqHead:])
		clear(sk.recvq[n:])
		sk.recvq, sk.rqHead = sk.recvq[:n], 0
	}
	sk.recvq = append(sk.recvq, m)
}

// popLocked drops the head message, recycling its buffer if it is the
// stack's. An emptied queue rewinds to the start of its backing array.
func (sk *Socket) popLocked() {
	if m := sk.recvq[sk.rqHead]; m.pooled {
		sk.stack.rx.put(m.buf)
	}
	sk.recvq[sk.rqHead] = rxMsg{}
	sk.rqHead++
	if sk.rqHead == len(sk.recvq) {
		sk.recvq, sk.rqHead = sk.recvq[:0], 0
	}
}

// Pending reports the number of queued messages.
func (sk *Socket) Pending() int {
	sk.mu.Lock()
	defer sk.mu.Unlock()
	return len(sk.recvq) - sk.rqHead
}

// LocalAddr returns the bound address.
func (sk *Socket) LocalAddr() string {
	sk.mu.Lock()
	defer sk.mu.Unlock()
	return sk.localAddr
}

// PeerAddr returns the connected peer address.
func (sk *Socket) PeerAddr() string {
	sk.mu.Lock()
	defer sk.mu.Unlock()
	return sk.peerAddr
}

// Close tears the socket down and unregisters any names it held.
func (sk *Socket) Close() error {
	sk.mu.Lock()
	local, fam, st := sk.localAddr, sk.Family, sk.state
	sk.state = StateClosed
	for sk.rqHead < len(sk.recvq) {
		sk.popLocked()
	}
	sk.recvq = nil
	sk.rcvBytes = 0
	sk.mu.Unlock()

	s := sk.stack
	s.mu.Lock()
	defer s.mu.Unlock()
	if fam == AFInet && st == StateListening {
		delete(s.listeners, local)
	}
	if fam == AFUnix && local != "" {
		delete(s.unixNames, local)
	}
	return nil
}

// Receive buffers of loopback messages are recycled per stack, one free
// list per power-of-two size class from 64 B to 64 KiB. A larger message
// gets a buffer of its own.
const (
	rxMinShift = 6  // 64 B
	rxMaxShift = 16 // 64 KiB
	rxClasses  = rxMaxShift - rxMinShift + 1
	// rxKeepLarge buffers of the largest class are kept, rxKeepSmall of
	// each smaller one; the rest go to the GC.
	rxKeepLarge = 1
	rxKeepSmall = 4
)

// rxPool is a stack's free list of receive buffers. Its mutex is a leaf:
// it is taken under a socket's, never the other way round.
type rxPool struct {
	mu   sync.Mutex
	free [rxClasses][][]byte
}

// rxClass returns the size class that holds n bytes, or -1 when n is
// larger than the largest class.
func rxClass(n int) int {
	c := max(0, bits.Len(uint(max(n, 1)-1))-rxMinShift)
	if c >= rxClasses {
		return -1
	}
	return c
}

// get returns a buffer of exactly n bytes and whether it belongs to the
// pool. Its content is stale: the caller overwrites all n bytes.
func (p *rxPool) get(n int) ([]byte, bool) {
	c := rxClass(n)
	if c < 0 {
		return make([]byte, n), false
	}
	p.mu.Lock()
	if k := len(p.free[c]); k > 0 {
		buf := p.free[c][k-1]
		p.free[c][k-1] = nil
		p.free[c] = p.free[c][:k-1]
		p.mu.Unlock()
		return buf[:n], true
	}
	p.mu.Unlock()
	return make([]byte, n, 1<<(rxMinShift+c)), true
}

// put returns a buffer that get handed out as pooled.
func (p *rxPool) put(buf []byte) {
	c := rxClass(cap(buf))
	keep := rxKeepSmall
	if c == rxClasses-1 {
		keep = rxKeepLarge
	}
	p.mu.Lock()
	if len(p.free[c]) < keep {
		p.free[c] = append(p.free[c], buf)
	}
	p.mu.Unlock()
}
