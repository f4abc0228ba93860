package android

import (
	"fmt"
	"sync"

	"anception/internal/abi"
	"anception/internal/binder"
	"anception/internal/marshal"
	"anception/internal/vfs"
)

// BinderDevice is the /dev/binder node: its ioctl interface carries
// transactions into the binder driver.
type BinderDevice struct {
	driver *binder.Driver
	// dec decodes transactions under mu and keeps the last service name.
	mu  sync.Mutex
	dec marshal.Decoder
}

var _ vfs.Device = (*BinderDevice)(nil)

// NewBinderDevice wraps a driver as a device node.
func NewBinderDevice(d *binder.Driver) *BinderDevice {
	return &BinderDevice{driver: d}
}

// DevName implements vfs.Device.
func (b *BinderDevice) DevName() string { return "binder" }

// Read implements vfs.Device; binder is ioctl-only.
func (b *BinderDevice) Read(_ vfs.Cred, _ []byte, _ int64) (int, error) {
	return 0, abi.EINVAL
}

// Write implements vfs.Device; binder is ioctl-only.
func (b *BinderDevice) Write(_ vfs.Cred, _ []byte, _ int64) (int, error) {
	return 0, abi.EINVAL
}

// Ioctl implements vfs.Device: IocTransact dispatches a transaction;
// IocWaitInputEvent is Listing 1's direct input-wait shorthand, serviced
// by the window manager.
func (b *BinderDevice) Ioctl(cred vfs.Cred, req uint32, arg []byte) ([]byte, error) {
	switch req {
	case binder.IocTransact:
		if len(arg) > binder.MaxTransaction {
			return nil, fmt.Errorf("binder: transaction %d bytes exceeds buffer: %w", len(arg), abi.E2BIG)
		}
		b.mu.Lock()
		txn, err := b.dec.BinderTxn(arg)
		b.mu.Unlock()
		if err != nil {
			return nil, err
		}
		return b.driver.Transact(cred, txn)
	case binder.IocWaitInputEvent:
		return b.driver.Transact(cred, binder.Transaction{Service: "window", Code: CodeWaitInput})
	case binder.IocVersion:
		return []byte{8}, nil
	default:
		return nil, abi.EINVAL
	}
}

// Driver exposes the wrapped driver (for the Anception layer's UI test).
func (b *BinderDevice) Driver() *binder.Driver { return b.driver }

// Framebuffer is /dev/graphics/fb0. When the historical misconfiguration
// is present, mapping it exposes kernel memory to the caller — the
// kernelchopper (CVE-2013-2596) channel.
type Framebuffer struct {
	exposesKernel bool
	pixels        []byte
}

var _ vfs.MmapableDevice = (*Framebuffer)(nil)

// NewFramebuffer creates the node; exposesKernel selects the vulnerable
// configuration.
func NewFramebuffer(exposesKernel bool) *Framebuffer {
	return &Framebuffer{exposesKernel: exposesKernel, pixels: make([]byte, abi.PageSize)}
}

// DevName implements vfs.Device.
func (f *Framebuffer) DevName() string { return "fb0" }

// Read implements vfs.Device.
func (f *Framebuffer) Read(_ vfs.Cred, p []byte, off int64) (int, error) {
	if off >= int64(len(f.pixels)) {
		return 0, nil
	}
	return copy(p, f.pixels[off:]), nil
}

// Write implements vfs.Device.
func (f *Framebuffer) Write(_ vfs.Cred, p []byte, off int64) (int, error) {
	if off >= int64(len(f.pixels)) {
		return 0, abi.ENOSPC
	}
	return copy(f.pixels[off:], p), nil
}

// Ioctl implements vfs.Device (FBIOGET_VSCREENINFO-style queries).
func (f *Framebuffer) Ioctl(_ vfs.Cred, req uint32, _ []byte) ([]byte, error) {
	return []byte("1280x800"), nil
}

// MmapKind implements vfs.MmapableDevice.
func (f *Framebuffer) MmapKind() vfs.MmapKind {
	if f.exposesKernel {
		return vfs.MmapKernelMemory
	}
	return vfs.MmapDeviceLocal
}

// nullDevice is /dev/null.
type nullDevice struct{}

var _ vfs.Device = nullDevice{}

func (nullDevice) DevName() string                                  { return "null" }
func (nullDevice) Read(_ vfs.Cred, _ []byte, _ int64) (int, error)  { return 0, nil }
func (nullDevice) Write(_ vfs.Cred, p []byte, _ int64) (int, error) { return len(p), nil }
func (nullDevice) Ioctl(_ vfs.Cred, _ uint32, _ []byte) ([]byte, error) {
	return nil, abi.ENOTTY
}
