package marshal

import (
	"encoding/binary"
	"fmt"

	"anception/internal/abi"
	"anception/internal/binder"
)

// Binder's wire formats (DESIGN.md §12). An app's /dev/binder ioctl
// argument is a flat transaction: u16 name length, name, u32 code,
// payload. A oneway transaction prefixes it with binderOnewayMagic: a
// real name length of 0xFEFF (65279 bytes) never occurs in platform
// traffic, so the 0xFF 0xFE prefix is free to key the extended formats.
// The bridge ships a transaction on a pinned session over the async ring
// as a session frame (binderSessionMagic, u32 session, u32 code, u8 flags
// with bit 0 = oneway, payload) inside the binder-call envelope
// (binderCallMagic, u32 frame length). Decoding returns views: a
// payload is valid while the bytes it was decoded from are.
var (
	binderOnewayMagic  = [4]byte{0xFF, 0xFE, 'O', '1'}
	binderSessionMagic = [4]byte{0xFF, 0xFE, 'S', '1'}
)

// binderCallMagic is the first byte of a binder-call frame. It sits next
// to grantCallMagic, far outside the TLV tag range, so a plain args
// frame can never alias it.
const binderCallMagic uint8 = 0xA8

// binderSessionHeader is a session frame's length without its payload.
const binderSessionHeader = 4 + 4 + 4 + 1

// BinderSession is one transaction addressed by pinned handle instead of
// service name: what the bridge ships over the ring once a session is
// established, so the guest dispatches without a lookup.
type BinderSession struct {
	Session uint32
	Code    uint32
	Payload []byte
	Oneway  bool
}

// AppendBinderTxn appends t in the ioctl argument format.
func AppendBinderTxn(dst []byte, t binder.Transaction) []byte {
	n := 2 + len(t.Service) + 4 + len(t.Payload)
	if t.Oneway {
		n += len(binderOnewayMagic)
	}
	w := filler(dst, n)
	if t.Oneway {
		w.raw(binderOnewayMagic[:])
	}
	w.buf = binary.LittleEndian.AppendUint16(w.buf, uint16(len(t.Service)))
	w.rawString(t.Service)
	w.u32(int64(t.Code))
	w.raw(t.Payload)
	return w.buf
}

// BinderTxn decodes AppendBinderTxn's format. The payload is a view into
// b; the service name is kept like a path, so a repeated service decodes
// without a copy.
func (d *Decoder) BinderTxn(b []byte) (binder.Transaction, error) {
	var t binder.Transaction
	if len(b) >= 4 && [4]byte(b) == binderOnewayMagic {
		t.Oneway = true
		b = b[4:]
	}
	if len(b) < 2 {
		return t, fmt.Errorf("marshal: short binder transaction (%d bytes): %w", len(b), abi.EINVAL)
	}
	name := 2 + int(binary.LittleEndian.Uint16(b))
	if len(b) < name+4 {
		return t, fmt.Errorf("marshal: truncated binder transaction: %w", abi.EINVAL)
	}
	t.Service = d.keep(b[2:name])
	t.Code = binary.LittleEndian.Uint32(b[name:])
	t.Payload = b[name+4 : len(b) : len(b)]
	return t, nil
}

// AppendBinderSession appends s as a session frame inside the binder-call
// envelope.
func AppendBinderSession(dst []byte, s BinderSession) []byte {
	n := binderSessionHeader + len(s.Payload)
	w := filler(dst, 1+4+n)
	w.u8(binderCallMagic)
	w.u32(int64(n))
	w.raw(binderSessionMagic[:])
	w.u32(int64(s.Session))
	w.u32(int64(s.Code))
	var flags uint8
	if s.Oneway {
		flags |= 1
	}
	w.u8(flags)
	w.raw(s.Payload)
	return w.buf
}

// IsBinderCall reports whether a channel payload is a binder-call frame.
func IsBinderCall(b []byte) bool {
	return len(b) > 0 && b[0] == binderCallMagic
}

// BinderSession decodes AppendBinderSession's format; the payload is a
// view into b.
func (d *Decoder) BinderSession(b []byte) (BinderSession, error) {
	if !IsBinderCall(b) {
		return BinderSession{}, fmt.Errorf("marshal: not a binder call: %w", abi.EINVAL)
	}
	r := &reader{buf: b, pos: 1}
	n := r.u32()
	if r.err != nil || n != len(b)-r.pos || n < binderSessionHeader {
		return BinderSession{}, errTruncated
	}
	if [4]byte(b[r.pos:]) != binderSessionMagic {
		return BinderSession{}, fmt.Errorf("marshal: not a binder session frame: %w", abi.EINVAL)
	}
	r.pos += 4
	s := BinderSession{Session: uint32(r.u32()), Code: uint32(r.u32())}
	s.Oneway = r.u8()&1 != 0
	s.Payload = b[r.pos:len(b):len(b)]
	return s, nil
}
