package marshal

import (
	"fmt"

	"anception/internal/abi"
	"anception/internal/kernel"
)

// The network fast path ships socket operations over the same async ring
// as redirected file I/O and binder traffic (DESIGN.md §14). A socket op
// uses a compact fixed-layout frame instead of the general TLV blob: the
// hot ops (a 128-byte echo send, a recv header, an accept4 batch request)
// must fit the ring's inline window so they skip the chunked channel
// copy entirely, and a fixed layout keeps the header at 29 bytes where
// the TLV form spends ~9 bytes per populated field.
//
// Layout (little-endian):
//
//	magic u8 | nr u32 | fd u32 | fd2 u32 | flags u32 | size u32 |
//	addrLen u32 + addr | payload (rest)
//
// fd2 carries the target descriptor for epoll_ctl; flags carries the
// epoll op / shutdown how / accept batch limit; size carries the recv
// length, epoll maxevents, or accept4 backlog max; addr is the peer
// address for connect/sendto. The payload is the send body (or empty for
// read-style ops, whose bytes come home in the result's Data).

// sockOpMagic is the first byte of a socket-op frame. It sits next to
// grantCallMagic/binderCallMagic, far outside the TLV tag range, so a
// plain args frame can never alias it.
const sockOpMagic uint8 = 0xA9

// AppendSockOp appends a socket operation's fixed ring frame.
func AppendSockOp(dst []byte, a *kernel.Args) []byte {
	w := filler(dst, 1+6*4+len(a.Addr)+len(a.Buf))
	w.u8(sockOpMagic)
	w.u32(int64(a.Nr))
	w.u32(int64(a.FD))
	w.u32(int64(a.FD2))
	w.u32(int64(a.Flags))
	w.u32(int64(a.Size))
	w.u32(int64(len(a.Addr)))
	w.rawString(a.Addr)
	w.raw(a.Buf)
	return w.buf
}

// IsSockOp reports whether a channel payload is a socket-op frame.
func IsSockOp(b []byte) bool {
	return len(b) > 0 && b[0] == sockOpMagic
}

// SockOp reverses AppendSockOp into a, which it resets first.
func (d *Decoder) SockOp(b []byte, a *kernel.Args) error {
	if !IsSockOp(b) {
		return fmt.Errorf("marshal: not a socket op: %w", abi.EINVAL)
	}
	*a = kernel.Args{}
	r := &reader{buf: b, pos: 1}
	a.Nr = abi.SyscallNr(int32(uint32(r.u32())))
	a.FD = int(int32(uint32(r.u32())))
	a.FD2 = int(int32(uint32(r.u32())))
	a.Flags = abi.OpenFlag(uint32(r.u32()))
	a.Size = int(int32(uint32(r.u32())))
	addrLen := r.u32()
	if r.err != nil {
		return errTruncated
	}
	if addrLen < 0 || r.pos+addrLen > len(b) {
		return errTruncated
	}
	if addrLen > 0 {
		a.Addr = d.keep(b[r.pos : r.pos+addrLen])
	}
	r.pos += addrLen
	if r.pos < len(b) {
		a.Buf = b[r.pos:len(b):len(b)]
	}
	return nil
}
