package marshal

import (
	"encoding/binary"
	"fmt"

	"anception/internal/abi"
	"anception/internal/binder"
)

// Binder's wire formats (DESIGN.md §12). An app's /dev/binder ioctl
// argument is a flat transaction: u16 name length, name, u32 code,
// payload. A oneway transaction prefixes it with binderOnewayMagic. A
// name length of 0xFEFF is reserved: the 0xFF 0xFE prefix keys the
// extended formats, so BinderTxn rejects any other flat transaction that
// starts with it. The host ships every binder call to the container in
// the binder-call envelope (binderCallMagic, u32 body length) around one
// of three bodies: a flat transaction as the app sent it, a transaction
// on a pinned session (binderSessionMagic, u32 session, u32 code, u8
// flags with bit 0 = oneway, payload), or a session open
// (binderOpenMagic, service name). No flat transaction starts with
// either magic, so the body's kind is never ambiguous. Decoding returns
// views: a payload is valid while the bytes it was decoded from are.
var (
	binderOnewayMagic  = [4]byte{0xFF, 0xFE, 'O', '1'}
	binderSessionMagic = [4]byte{0xFF, 0xFE, 'S', '1'}
	binderOpenMagic    = [4]byte{0xFF, 0xFE, 'N', '1'}
)

// binderCallMagic is the first byte of a binder-call frame. It sits next
// to grantCallMagic, far outside the TLV tag range, so a plain args
// frame can never alias it.
const binderCallMagic uint8 = 0xA8

// binderSessionHeader is a session body's length without its payload.
const binderSessionHeader = 4 + 4 + 4 + 1

// BinderSession is one transaction addressed by pinned handle instead of
// service name: what the bridge ships once a session is established, so
// the guest dispatches without a lookup.
type BinderSession struct {
	Session uint32
	Code    uint32
	Payload []byte
	Oneway  bool
}

// BinderCallKind names the body of a binder-call frame.
type BinderCallKind uint8

// The bodies a binder-call frame carries.
const (
	BinderByName    BinderCallKind = iota // a flat transaction, addressed by service name
	BinderOnSession                       // a transaction on a pinned session
	BinderOpen                            // a session open for a service name
)

// BinderCall is one decoded binder-call frame. Txn is the whole
// transaction of a BinderByName call, the code, payload and oneway flag
// of a BinderOnSession call, whose handle is Session, and the service
// alone of a BinderOpen.
type BinderCall struct {
	Kind    BinderCallKind
	Txn     binder.Transaction
	Session uint32
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
	if b[0] == binderOnewayMagic[0] && b[1] == binderOnewayMagic[1] {
		return t, fmt.Errorf("marshal: binder transaction with reserved name length 0xFEFF: %w", abi.EINVAL)
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

// AppendBinderFlat appends a flat transaction, txn in AppendBinderTxn's
// format, inside the binder-call envelope.
func AppendBinderFlat(dst, txn []byte) []byte {
	w := filler(dst, 1+4+len(txn))
	w.u8(binderCallMagic)
	w.u32(int64(len(txn)))
	w.raw(txn)
	return w.buf
}

// AppendBinderSession appends s inside the binder-call envelope.
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

// AppendBinderOpen appends a session open for service inside the
// binder-call envelope.
func AppendBinderOpen(dst []byte, service string) []byte {
	n := len(binderOpenMagic) + len(service)
	w := filler(dst, 1+4+n)
	w.u8(binderCallMagic)
	w.u32(int64(n))
	w.raw(binderOpenMagic[:])
	w.rawString(service)
	return w.buf
}

// IsBinderCall reports whether a channel payload is a binder-call frame.
func IsBinderCall(b []byte) bool {
	return len(b) > 0 && b[0] == binderCallMagic
}

// BinderCall decodes a binder-call frame of any body. Payloads are views
// into b; a service name is kept like a path.
func (d *Decoder) BinderCall(b []byte) (BinderCall, error) {
	var c BinderCall
	if !IsBinderCall(b) {
		return c, fmt.Errorf("marshal: not a binder call: %w", abi.EINVAL)
	}
	r := &reader{buf: b, pos: 1}
	n := r.u32()
	if r.err != nil || n != len(b)-r.pos {
		return c, errTruncated
	}
	body := b[r.pos:len(b):len(b)]
	switch {
	case len(body) >= 4 && [4]byte(body) == binderSessionMagic:
		if len(body) < binderSessionHeader {
			return c, errTruncated
		}
		c.Kind = BinderOnSession
		c.Session = binary.LittleEndian.Uint32(body[4:])
		c.Txn.Code = binary.LittleEndian.Uint32(body[8:])
		c.Txn.Oneway = body[12]&1 != 0
		c.Txn.Payload = body[binderSessionHeader:]
	case len(body) >= 4 && [4]byte(body) == binderOpenMagic:
		c.Kind = BinderOpen
		c.Txn.Service = d.keep(body[4:])
	default:
		txn, err := d.BinderTxn(body)
		if err != nil {
			return c, err
		}
		c.Kind, c.Txn = BinderByName, txn
	}
	return c, nil
}
