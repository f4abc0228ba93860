package marshal

import (
	"fmt"

	"anception/internal/abi"
	"anception/internal/kernel"
)

// Linked submissions (DESIGN.md §17): a chain frame packs an ordered list
// of dependent call frames into one SQ submission with io_uring-IO_LINK
// semantics. Later links see earlier results through two small
// register-style bindings — "descriptor from link k" and the running
// bytes-read cursor — so the guest can execute a whole open→fstat→read→
// close sequence without a host round-trip between links. A failed link
// short-circuits the rest of the chain with its errno; the links that
// never ran still carry a result, so accounting stays positional.

// chainCallMagic is the first byte of a chain frame. It sits next to
// grantCallMagic/binderCallMagic/sockOpMagic, far outside the TLV tag
// range, so a plain args frame can never alias it.
const chainCallMagic uint8 = 0xAA

// MaxChainLinks is the codec's hard cap on links per chain. The layer's
// fused-submission bound sits below it; the decode-side bound is what
// keeps a hostile count from forcing a giant allocation.
const MaxChainLinks = 16

// Chain-link flag bits.
const (
	chainFlagCursor uint8 = 1 << iota
	chainFlagFDFrom
)

// ChainLink is one call of a linked submission.
type ChainLink struct {
	Args *kernel.Args
	// FDFrom binds this link's descriptor register: the result descriptor
	// of the named earlier link replaces Args.FD before execution
	// ("fd from link 0"). -1 leaves Args.FD as encoded.
	FDFrom int
	// UseCursor adds the chain's running bytes-read cursor to this link's
	// file offset before execution; every read-like link advances the
	// cursor by its positive return value. Together with FDFrom this is
	// what lets "read the file in N linked slices" run guest-side.
	UseCursor bool
}

// ChainResult is the guest's reply to a chain submission.
type ChainResult struct {
	// Executed counts links the guest actually ran; a short-circuited or
	// drained chain reports fewer than len(Results). The accounting
	// identity Submitted = Completed + Failed is kept per link: executed
	// links (including guest errnos) are completions, the rest failures.
	Executed int
	Results  []kernel.Result
}

// AppendChain appends one chain frame packing an ordered link list.
func AppendChain(dst []byte, links []ChainLink) []byte {
	sz := writer{sizing: true}
	encodeChain(&sz, links)
	w := filler(dst, sz.n)
	encodeChain(&w, links)
	return w.buf
}

func encodeChain(w *writer, links []ChainLink) {
	w.u8(chainCallMagic)
	w.u32(int64(len(links)))
	for _, ln := range links {
		var flags uint8
		if ln.UseCursor {
			flags |= chainFlagCursor
		}
		if ln.FDFrom >= 0 {
			flags |= chainFlagFDFrom
		}
		w.u8(flags)
		if ln.FDFrom >= 0 {
			w.u8(uint8(ln.FDFrom))
		}
		w.u32(int64(argsSize(ln.Args)))
		encodeArgs(w, ln.Args)
	}
}

// IsChainCall reports whether a channel payload is a chain frame. Like a
// sockop or grant descriptor, a small chain frame is inline-eligible: it
// is a compact descriptor list, not a bulk payload.
func IsChainCall(b []byte) bool {
	return len(b) > 0 && b[0] == chainCallMagic
}

// Chain reverses AppendChain into the decoder's storage, validating the
// link count and that every descriptor binding names a strictly earlier
// link.
func (d *Decoder) Chain(b []byte) ([]ChainLink, error) {
	if !IsChainCall(b) {
		return nil, fmt.Errorf("marshal: not a chain frame: %w", abi.EINVAL)
	}
	r := &reader{buf: b, pos: 1}
	n := r.u32()
	if r.err != nil {
		return nil, r.err
	}
	if n <= 0 || n > MaxChainLinks {
		return nil, fmt.Errorf("marshal: bad chain link count %d: %w", n, abi.EINVAL)
	}
	store := d.argsFor(n)
	if cap(d.links) < n {
		d.links = make([]ChainLink, 0, n)
	}
	links := d.links[:0]
	for i := 0; i < n; i++ {
		flags := r.u8()
		fdFrom := -1
		if flags&chainFlagFDFrom != 0 {
			fdFrom = int(r.u8())
		}
		blob := r.bytes()
		if r.err != nil {
			return nil, r.err
		}
		if flags&^(chainFlagCursor|chainFlagFDFrom) != 0 {
			return nil, fmt.Errorf("marshal: unknown chain link flags %#x: %w", flags, abi.EINVAL)
		}
		if fdFrom >= i {
			return nil, fmt.Errorf("marshal: chain link %d binds fd from link %d (not earlier): %w", i, fdFrom, abi.EINVAL)
		}
		if err := d.Args(blob, &store[i]); err != nil {
			return nil, err
		}
		links = append(links, ChainLink{Args: &store[i], FDFrom: fdFrom, UseCursor: flags&chainFlagCursor != 0})
	}
	if r.pos != len(b) {
		return nil, fmt.Errorf("marshal: %d trailing bytes after chain: %w", len(b)-r.pos, abi.EINVAL)
	}
	return links, nil
}

// AppendChainResult appends the guest's per-link results plus the
// executed count for the completion post.
func AppendChainResult(dst []byte, cr ChainResult) []byte {
	sz := writer{sizing: true}
	encodeChainResult(&sz, cr)
	w := filler(dst, sz.n)
	encodeChainResult(&w, cr)
	return w.buf
}

func encodeChainResult(w *writer, cr ChainResult) {
	w.u32(int64(len(cr.Results)))
	w.u32(int64(cr.Executed))
	encodeResults(w, cr.Results)
}

// ChainResult reverses AppendChainResult into the decoder's storage.
func (d *Decoder) ChainResult(b []byte) (ChainResult, error) {
	r := &reader{buf: b}
	n := r.u32()
	executed := r.u32()
	if r.err != nil {
		return ChainResult{}, r.err
	}
	if n <= 0 || n > MaxChainLinks || executed < 0 || executed > n {
		return ChainResult{}, fmt.Errorf("marshal: bad chain result header (%d links, %d executed): %w", n, executed, abi.EINVAL)
	}
	results, err := d.resultVector(r, n)
	if err != nil {
		return ChainResult{}, err
	}
	if r.pos != len(b) {
		return ChainResult{}, fmt.Errorf("marshal: %d trailing bytes after chain result: %w", len(b)-r.pos, abi.EINVAL)
	}
	return ChainResult{Executed: executed, Results: results}, nil
}
