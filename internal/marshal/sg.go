package marshal

import (
	"fmt"

	"anception/internal/abi"
	"anception/internal/kernel"
)

// The zero-copy data path replaces inline chunked payloads with a
// scatter-gather descriptor: a fixed-size header naming granted extents
// (hypervisor.GrantTable slots) that the guest resolves back to pinned
// host pages. The descriptor is tiny and size-independent, so a bulk
// call's channel cost stops scaling with its payload.

// grantCallMagic is the first byte of a grant-call frame. TLV tags start
// at 1 and stay small; the magic sits far outside that range so a plain
// args frame can never alias a grant call.
const grantCallMagic uint8 = 0xA7

// sgMaxEntries bounds a descriptor's entry count; it is more than any
// vectored call the kernel accepts and keeps a hostile length field from
// forcing a huge allocation during decode.
const sgMaxEntries = 1024

// SGEntry references one granted extent: the grant slot, the boot
// generation it was issued against, and the byte window within the
// grant. Gen is what makes restarts safe — a stale entry fails
// EHOSTDOWN at resolve time instead of touching reused pages.
type SGEntry struct {
	ID  uint32
	Gen uint32
	Off uint32
	Len uint32
}

// SGDescriptor is the scatter-gather list of one zero-copy call.
// Writable marks read-style calls: the guest fills the extents instead
// of consuming them, and the reply carries only the return count.
type SGDescriptor struct {
	Writable bool
	Entries  []SGEntry
}

// TotalLen sums the entry windows.
func (d *SGDescriptor) TotalLen() int {
	n := 0
	for _, e := range d.Entries {
		n += int(e.Len)
	}
	return n
}

// AppendSG appends a flattened descriptor.
func AppendSG(dst []byte, d *SGDescriptor) []byte {
	w := filler(dst, sgSize(d))
	encodeSG(&w, d)
	return w.buf
}

// sgSize is the exact length of a flattened descriptor.
func sgSize(d *SGDescriptor) int { return 1 + 4 + 16*len(d.Entries) }

func encodeSG(w *writer, d *SGDescriptor) {
	if d.Writable {
		w.u8(1)
	} else {
		w.u8(0)
	}
	w.u32(int64(len(d.Entries)))
	for _, e := range d.Entries {
		w.u32(int64(e.ID))
		w.u32(int64(e.Gen))
		w.u32(int64(e.Off))
		w.u32(int64(e.Len))
	}
}

// decodeSG reverses AppendSG into d, reusing its entry storage. The
// entry count is validated against both the sgMaxEntries cap and the
// bytes actually present, so truncated or hostile input fails cleanly
// instead of allocating.
func decodeSG(b []byte, d *SGDescriptor) error {
	r := &reader{buf: b}
	wr := r.u8()
	n := r.u32()
	if r.err != nil {
		return r.err
	}
	if wr > 1 {
		return fmt.Errorf("marshal: bad sg writable flag %d: %w", wr, abi.EINVAL)
	}
	if n < 0 || n > sgMaxEntries || len(b)-r.pos < n*16 {
		return fmt.Errorf("marshal: bad sg entry count %d: %w", n, abi.EINVAL)
	}
	d.Writable = wr == 1
	if cap(d.Entries) < n {
		d.Entries = make([]SGEntry, n)
	}
	d.Entries = d.Entries[:n]
	for i := range d.Entries {
		d.Entries[i] = SGEntry{
			ID:  uint32(r.u32()),
			Gen: uint32(r.u32()),
			Off: uint32(r.u32()),
			Len: uint32(r.u32()),
		}
	}
	if r.err != nil {
		return r.err
	}
	if r.pos != len(b) {
		return fmt.Errorf("marshal: %d trailing bytes after sg descriptor: %w", len(b)-r.pos, abi.EINVAL)
	}
	return nil
}

// AppendGrantCall appends a zero-copy call frame: the magic byte, the
// length-prefixed descriptor, then the args frame of the call with its
// bulk payload stripped (the extents travel by reference).
func AppendGrantCall(dst []byte, d *SGDescriptor, a *kernel.Args) []byte {
	w := filler(dst, 1+4+sgSize(d)+argsSize(a))
	w.u8(grantCallMagic)
	w.u32(int64(sgSize(d)))
	encodeSG(&w, d)
	encodeArgs(&w, a)
	return w.buf
}

// IsGrantCall reports whether a channel payload is a grant-call frame.
func IsGrantCall(b []byte) bool {
	return len(b) > 0 && b[0] == grantCallMagic
}

// splitGrantCall decodes a grant-call frame's descriptor into d and
// returns its args payload (a view into b).
func splitGrantCall(b []byte, d *SGDescriptor) ([]byte, error) {
	if !IsGrantCall(b) {
		return nil, fmt.Errorf("marshal: not a grant call: %w", abi.EINVAL)
	}
	r := &reader{buf: b, pos: 1}
	n := r.u32()
	if r.err != nil || n < 0 || r.pos+n > len(b) {
		return nil, errTruncated
	}
	if err := decodeSG(b[r.pos:r.pos+n], d); err != nil {
		return nil, err
	}
	return b[r.pos+n:], nil
}

// GrantCall reverses AppendGrantCall: the descriptor is decoded into
// storage the decoder keeps, and the stripped args into a as Args decodes
// them. The descriptor it returns is valid until the next GrantCall.
func (dec *Decoder) GrantCall(b []byte, a *kernel.Args) (*SGDescriptor, error) {
	rest, err := splitGrantCall(b, &dec.sg)
	if err != nil {
		return nil, err
	}
	if err := dec.Args(rest, a); err != nil {
		return nil, err
	}
	return &dec.sg, nil
}
