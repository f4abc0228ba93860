// Package binder implements Android's custom capability-based IPC
// mechanism at the level of abstraction the paper operates on: a kernel
// driver exposed as /dev/binder whose ioctl interface carries synchronous
// transactions to named services.
//
// Each registered service carries the classification the redirection
// logic relies on: a transaction either targets a UI/Input service — in
// which case it must be serviced on the host (principle 2) — or an
// ordinary service that may live in the CVM. A driver holds no other
// claim about its services: which replies the host may cache is the
// host's own declaration (DESIGN.md §12), never a registration's. The
// driver dispatches decoded transactions; the ioctl argument's wire
// format is marshal's.
package binder

import (
	"fmt"
	"sync"

	"anception/internal/abi"
)

// Ioctl request codes on /dev/binder.
const (
	// IocTransact carries one synchronous transaction (the simulation's
	// stand-in for BINDER_WRITE_READ).
	IocTransact uint32 = 0xC0306201
	// IocWaitInputEvent blocks until a UI input event is available; it is
	// the paper's Listing 1 IOC_WAIT_INPUT_EVT.
	IocWaitInputEvent uint32 = 0xC0306202
	// IocVersion returns the binder protocol version.
	IocVersion uint32 = 0xC0046209
)

// Handler services transactions sent to one registered service. data is
// valid only while the handler runs: the caller reuses its memory, so a
// service that keeps the bytes, or returns them as its reply, must copy
// them. A reply is read-only to whoever receives it, so a service may
// return the same bytes to every caller.
type Handler func(from abi.Cred, code uint32, data []byte) ([]byte, error)

// Service is one registered binder endpoint.
type Service struct {
	Name    string
	UI      bool // part of the UI/Input stack (host-resident under Anception)
	Handler Handler
}

// Driver is the binder kernel driver of one kernel instance.
type Driver struct {
	mu       sync.Mutex
	services map[string]*Service
	// sessions maps pinned handles to services: a session skips the name
	// lookup on every transaction after OpenSession resolved it once.
	sessions  map[uint32]*Service
	nextSess  uint32
	txnCount  int
	uiTxn     int
	onewayTxn int
}

// NewDriver returns an empty binder driver.
func NewDriver() *Driver {
	return &Driver{
		services: make(map[string]*Service),
		sessions: make(map[uint32]*Service),
	}
}

// Register adds a service to the context manager. Registering a name twice
// is a programming error in platform assembly and is reported as EEXIST.
func (d *Driver) Register(name string, ui bool, h Handler) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if _, ok := d.services[name]; ok {
		return fmt.Errorf("binder: service %q: %w", name, abi.EEXIST)
	}
	d.services[name] = &Service{Name: name, UI: ui, Handler: h}
	return nil
}

// Lookup returns the registered service, or nil.
func (d *Driver) Lookup(name string) *Service {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.services[name]
}

// Services lists registered service names (for the CLI and tests).
func (d *Driver) Services() []string {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]string, 0, len(d.services))
	for name := range d.services {
		out = append(out, name)
	}
	return out
}

// OpenSession resolves a service name once and pins the handle: every
// later TransactSession on the returned id dispatches without a name
// lookup. Unknown services fail with ENOENT. Sessions die with the driver
// (i.e. with the kernel instance) — a CVM restart invalidates them all.
func (d *Driver) OpenSession(name string) (uint32, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	svc := d.services[name]
	if svc == nil {
		return 0, fmt.Errorf("binder: no service %q: %w", name, abi.ENOENT)
	}
	d.nextSess++
	id := d.nextSess
	d.sessions[id] = svc
	return id, nil
}

// CloseSession drops a pinned handle; unknown ids are ignored.
func (d *Driver) CloseSession(id uint32) {
	d.mu.Lock()
	defer d.mu.Unlock()
	delete(d.sessions, id)
}

// SessionCount reports live pinned handles (tests and the CLI).
func (d *Driver) SessionCount() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.sessions)
}

// TransactSession dispatches on a pinned handle: no name lookup, straight
// to the resolved service. A stale or never-opened id fails with ENOENT,
// mirroring a dead binder ref.
func (d *Driver) TransactSession(from abi.Cred, id uint32, code uint32, payload []byte, oneway bool) ([]byte, error) {
	if len(payload) > MaxTransaction {
		return nil, fmt.Errorf("binder: transaction %d bytes exceeds buffer: %w", len(payload), abi.E2BIG)
	}
	d.mu.Lock()
	svc := d.sessions[id]
	d.mu.Unlock()
	if svc == nil {
		return nil, fmt.Errorf("binder: no session %d: %w", id, abi.ENOENT)
	}
	return d.dispatch(svc, from, code, payload, oneway)
}

// MaxTransaction is the binder transaction buffer limit (1 MB on Android;
// oversized transactions fail rather than truncate).
const MaxTransaction = 1 << 20

// Transact dispatches one decoded transaction by service name. Unknown
// services fail with ENOENT, mirroring a dead binder ref; oversized
// transactions fail with E2BIG as the real driver's buffer would. The
// ioctl argument format and its decoder live in marshal; the callers of
// the /dev/binder ioctl decode and enter here.
func (d *Driver) Transact(from abi.Cred, txn Transaction) ([]byte, error) {
	if len(txn.Payload)+len(txn.Service) > MaxTransaction {
		return nil, fmt.Errorf("binder: transaction %d bytes exceeds buffer: %w", len(txn.Payload), abi.E2BIG)
	}
	svc := d.Lookup(txn.Service)
	if svc == nil {
		return nil, fmt.Errorf("binder: no service %q: %w", txn.Service, abi.ENOENT)
	}
	return d.dispatch(svc, from, txn.Code, txn.Payload, txn.Oneway)
}

// dispatch counts and runs one transaction. Oneway transactions run the
// handler but discard its reply (and its error — there is nobody to
// deliver either to), like TF_ONE_WAY.
func (d *Driver) dispatch(svc *Service, from abi.Cred, code uint32, payload []byte, oneway bool) ([]byte, error) {
	d.mu.Lock()
	d.txnCount++
	if svc.UI {
		d.uiTxn++
	}
	if oneway {
		d.onewayTxn++
	}
	d.mu.Unlock()
	if oneway {
		_, _ = svc.Handler(from, code, payload)
		return nil, nil
	}
	return svc.Handler(from, code, payload)
}

// Stats reports total and UI transaction counts since boot.
func (d *Driver) Stats() (total, ui int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.txnCount, d.uiTxn
}

// OnewayCount reports oneway transactions dispatched since boot.
func (d *Driver) OnewayCount() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.onewayTxn
}

// Transaction is one decoded binder call. Payload is a view into the
// bytes it was decoded from.
type Transaction struct {
	Service string
	Code    uint32
	Payload []byte
	// Oneway marks an asynchronous (TF_ONE_WAY) transaction: dispatched
	// without a reply; the caller does not block on the service.
	Oneway bool
}
