package marshal

import (
	"errors"
	"fmt"
	"time"

	"anception/internal/abi"
	"anception/internal/hypervisor"
	"anception/internal/kernel"
	"anception/internal/sim"
)

// GuestHandler executes a request in the guest and returns the response
// bytes. It runs logically "inside" the CVM between the two world switches.
// The request, and usually the reply, live in the submitter's reused call
// frame (DESIGN.md §10): a transport copies both through the channel and
// hands the reply back, but keeps neither once the round trip completes.
type GuestHandler func(req []byte) []byte

// Transport moves one request to the guest and its response back, charging
// simulated time. Implementations differ only in cost structure.
type Transport interface {
	// RoundTrip delivers payload to the guest, runs handler there, and
	// returns the response. The transport's charges go to lane, the
	// timeline of the task whose call this is (nil for device-level
	// traffic such as the heartbeat).
	RoundTrip(lane *sim.Lane, payload []byte, handler GuestHandler) ([]byte, error)
	// Name identifies the transport in ablation reports.
	Name() string
}

// ErrHang signals that a round-trip would never complete in real time: the
// request was lost, the hypercall path is wedged, or the guest stopped
// responding. The Anception layer converts it into an ETIMEDOUT at the
// call's deadline instead of blocking the app forever.
var ErrHang = errors.New("marshal: data-channel round-trip hung")

// LivenessSetter is implemented by transports that can check guest
// liveness before signaling it. The probe returns false when the guest
// kernel is down (panicked); the transport then fails fast with an
// EHOSTDOWN-style error instead of running the handler against a dead
// kernel.
type LivenessSetter interface {
	SetLiveness(probe func() bool)
}

// errGuestDown builds the distinct "container dead" transport error so the
// layer can tell a dead container from a slow one.
func errGuestDown(transport string) error {
	return fmt.Errorf("%s: guest kernel down: %w", transport, abi.EHOSTDOWN)
}

// DefaultChunkSize is the data channel's transfer unit (footnote 7) when
// no chunk size is given. The chunk-size ablation (A2) sweeps other sizes
// through anception's Options.ChunkSize, which reaches NewPageChannel and
// NewRingChannel.
const DefaultChunkSize = abi.PageSize

// PageChannel is the shipped transport: marshaled data is copied into
// guest kernel pages that were remapped into host kernel space at launch,
// then the guest is signaled by interrupt injection; the guest replies via
// hypercall (Section IV-1).
type PageChannel struct {
	cvm       *hypervisor.CVM
	clock     *sim.Clock
	model     sim.LatencyModel
	chunkSize int
	liveness  func() bool
}

var _ Transport = (*PageChannel)(nil)

// NewPageChannel builds the remapped-page transport. chunkSize <= 0 uses
// the default 4096-byte chunking.
func NewPageChannel(cvm *hypervisor.CVM, clock *sim.Clock, model sim.LatencyModel, chunkSize int) *PageChannel {
	if chunkSize <= 0 {
		chunkSize = DefaultChunkSize
	}
	return &PageChannel{cvm: cvm, clock: clock, model: model, chunkSize: chunkSize}
}

// Name implements Transport.
func (p *PageChannel) Name() string { return "remapped-pages" }

// SetLiveness implements LivenessSetter. Must be called before the channel
// is shared across goroutines (it is wired once at layer construction).
func (p *PageChannel) SetLiveness(probe func() bool) { p.liveness = probe }

// ChunkSize returns the configured transfer unit.
func (p *PageChannel) ChunkSize() int { return p.chunkSize }

// chargeChunks models copying data through the fixed-size channel slots.
func (p *PageChannel) chargeChunks(lane *sim.Lane, n int, perByte time.Duration) {
	if n == 0 {
		p.clock.Charge(lane, p.model.ChunkOverhead)
		return
	}
	chunks := (n + p.chunkSize - 1) / p.chunkSize
	p.clock.Charge(lane, time.Duration(chunks)*p.model.ChunkOverhead+time.Duration(n)*perByte)
}

// RoundTrip implements Transport. The payload bytes really do traverse the
// guest-owned channel frames, so anything the host sends is visible to
// (and only to) the container.
func (p *PageChannel) RoundTrip(lane *sim.Lane, payload []byte, handler GuestHandler) ([]byte, error) {
	// Liveness first: a panicked guest must not be signaled, and the
	// handler must not run against its dead kernel. The distinct errno
	// lets the layer tell "container dead" from "container slow".
	if p.liveness != nil && !p.liveness() {
		return nil, errGuestDown("page channel")
	}
	pages := p.cvm.ChannelPagesRO()
	if len(pages) == 0 {
		return nil, abi.ENXIO
	}
	// Outbound: copy into remapped guest pages, chunk by chunk.
	p.chargeChunks(lane, len(payload), p.model.CopyToGuestPerByte)
	if err := p.copyThroughChannel(pages, payload); err != nil {
		return nil, err
	}
	// Signal the guest and run the call there.
	p.cvm.InjectInterrupt(lane)
	resp := handler(payload)
	// Inbound: the guest posts the response through the same pages and
	// hypercalls back.
	p.chargeChunks(lane, len(resp), p.model.CopyFromGuestPerByte)
	if err := p.copyThroughChannel(pages, resp); err != nil {
		return nil, err
	}
	p.cvm.Hypercall(lane)
	return resp, nil
}

// copyThroughChannel writes data into the channel frames (ring-style) so
// the bytes genuinely exist in guest-visible memory.
func (p *PageChannel) copyThroughChannel(pages []kernel.FrameID, data []byte) error {
	slot := 0
	for off := 0; off < len(data); off += abi.PageSize {
		end := off + abi.PageSize
		if end > len(data) {
			end = len(data)
		}
		// The host kernel may write these frames because they were
		// remapped into its address space at launch; physically they are
		// guest frames, which is the point.
		if err := p.cvm.WriteChannelFrame(pages[slot], data[off:end]); err != nil {
			return err
		}
		slot = (slot + 1) % len(pages)
	}
	return nil
}

// LastChannelBytes returns the current contents of the first channel
// frame; tests use it to observe what the container could see.
func (p *PageChannel) LastChannelBytes(n int) ([]byte, error) {
	pages := p.cvm.ChannelPages()
	if len(pages) == 0 {
		return nil, abi.ENXIO
	}
	buf := make([]byte, n)
	if err := p.cvm.ReadChannelFrame(pages[0], buf); err != nil {
		return nil, err
	}
	return buf, nil
}

// SocketChannel is the discarded prototype transport (Section IV-1): a
// socket/virtio-style path with extra data copies and per-message fixed
// cost. Functionally identical; only the cost model differs.
type SocketChannel struct {
	cvm      *hypervisor.CVM
	clock    *sim.Clock
	model    sim.LatencyModel
	liveness func() bool
}

var _ Transport = (*SocketChannel)(nil)

// NewSocketChannel builds the ablation transport.
func NewSocketChannel(cvm *hypervisor.CVM, clock *sim.Clock, model sim.LatencyModel) *SocketChannel {
	return &SocketChannel{cvm: cvm, clock: clock, model: model}
}

// Name implements Transport.
func (s *SocketChannel) Name() string { return "socket" }

// SetLiveness implements LivenessSetter.
func (s *SocketChannel) SetLiveness(probe func() bool) { s.liveness = probe }

// RoundTrip implements Transport.
func (s *SocketChannel) RoundTrip(lane *sim.Lane, payload []byte, handler GuestHandler) ([]byte, error) {
	if s.liveness != nil && !s.liveness() {
		return nil, errGuestDown("socket channel")
	}
	s.clock.Charge(lane, s.model.SocketChannelFixed+time.Duration(len(payload))*s.model.SocketChannelPerByte)
	s.cvm.InjectInterrupt(lane)
	resp := handler(payload)
	s.clock.Charge(lane, s.model.SocketChannelFixed+time.Duration(len(resp))*s.model.SocketChannelPerByte)
	s.cvm.Hypercall(lane)
	return resp, nil
}
