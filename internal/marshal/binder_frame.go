package marshal

import (
	"fmt"

	"anception/internal/abi"
)

// The binder fast path ships session-addressed transactions over the same
// async ring as redirected file I/O. The ring only needs to tell a binder
// frame apart from an argument blob (for inline-eligibility: session
// frames are tiny and latency-sensitive, exactly what the inline window
// exists for), so the frame is a thin opaque envelope — the binder
// package owns the inner encoding.

// binderCallMagic is the first byte of a binder-call frame. It sits next
// to grantCallMagic, far outside the TLV tag range, so a plain args
// frame can never alias it.
const binderCallMagic uint8 = 0xA8

// AppendBinderCall appends the ring envelope of an encoded binder frame.
func AppendBinderCall(dst []byte, frame []byte) []byte {
	w := filler(dst, 1+4+len(frame))
	w.u8(binderCallMagic)
	w.u32(int64(len(frame)))
	w.raw(frame)
	return w.buf
}

// IsBinderCall reports whether a channel payload is a binder-call frame.
func IsBinderCall(b []byte) bool {
	return len(b) > 0 && b[0] == binderCallMagic
}

// DecodeBinderCall unwraps AppendBinderCall's envelope; the frame is a
// view into b.
func DecodeBinderCall(b []byte) ([]byte, error) {
	if !IsBinderCall(b) {
		return nil, fmt.Errorf("marshal: not a binder call: %w", abi.EINVAL)
	}
	r := &reader{buf: b, pos: 1}
	n := r.u32()
	if r.err != nil || n < 0 || r.pos+n != len(b) {
		return nil, errTruncated
	}
	return b[r.pos:], nil
}
