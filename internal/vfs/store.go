package vfs

import "anception/internal/abi"

// MaxFileSize is the largest size a regular file may reach, the model's
// s_maxbytes. A write starting at or past it, or a truncate beyond it,
// fails with EFBIG, as on Linux; it keeps a hostile size from exhausting
// host memory.
const MaxFileSize int64 = 4 << 30

// fileData is the content of a regular file: its size plus page-sized
// blocks indexed by page number. A missing block, or the part of a block
// past its length, is a hole that reads as zeros. A block holds only the
// bytes written into it, so a small file costs its own length and growth
// inside a page is amortised; growing a file allocates only the pages
// written. Every read, write and resize of a regular file goes through
// the three Inode methods below.
type fileData struct {
	size   int64
	blocks [][]byte
}

// readAt copies the bytes at off into p, zero-filling holes, and returns
// how many it copied: fewer than len(p) only at end of file.
func (ino *Inode) readAt(p []byte, off int64) (int, error) {
	if off < 0 {
		return 0, abi.EINVAL
	}
	d := &ino.data
	if off >= d.size {
		return 0, nil
	}
	n := int(min(int64(len(p)), d.size-off))
	for done := 0; done < n; {
		pg, in := pageOf(off + int64(done))
		chunk := p[done:min(n, done+abi.PageSize-in)]
		var src []byte
		if pg < int64(len(d.blocks)) && in < len(d.blocks[pg]) {
			src = d.blocks[pg][in:]
		}
		clear(chunk[copy(chunk, src):])
		done += len(chunk)
	}
	return n, nil
}

// writeAt stores p at off, growing the file as needed. A write that would
// cross MaxFileSize stops there, and one that starts at or past it fails
// with EFBIG. It marks dirty the pages of the bytes it stores.
func (ino *Inode) writeAt(p []byte, off int64) (int, error) {
	if off < 0 {
		return 0, abi.EINVAL
	}
	if len(p) > 0 {
		if off >= MaxFileSize {
			return 0, abi.EFBIG
		}
		p = p[:min(int64(len(p)), MaxFileSize-off)]
	}
	ino.markDirtyRange(off, int64(len(p)))
	d := &ino.data
	for done := 0; done < len(p); {
		pg, in := pageOf(off + int64(done))
		chunk := p[done:min(len(p), done+abi.PageSize-in)]
		copy(d.block(pg, in+len(chunk))[in:], chunk)
		done += len(chunk)
	}
	if len(p) > 0 {
		d.size = max(d.size, off+int64(len(p)))
	}
	return len(p), nil
}

// truncate sets the file size. Growing adds a hole; shrinking releases the
// blocks past the new size and cuts the new last block to it, so a later
// grow reads zeros there.
func (ino *Inode) truncate(size int64) error {
	switch {
	case size < 0:
		return abi.EINVAL
	case size > MaxFileSize:
		return abi.EFBIG
	}
	d := &ino.data
	if keep := (size + abi.PageSize - 1) / abi.PageSize; size < d.size {
		if keep < int64(len(d.blocks)) {
			clear(d.blocks[keep:])
			d.blocks = d.blocks[:keep]
		}
		if keep == 0 {
			d.blocks = nil
		} else if keep == int64(len(d.blocks)) {
			tail := int(size - (keep-1)*abi.PageSize)
			d.blocks[keep-1] = d.blocks[keep-1][:min(tail, len(d.blocks[keep-1]))]
		}
	}
	d.size = size
	ino.markDirtyRange(0, size)
	return nil
}

// block returns block pg holding at least its first n bytes. It grows the
// block's capacity geometrically up to a page, and zeroes what it adds to
// the length: those bytes may be left over from before a shrink.
func (d *fileData) block(pg int64, n int) []byte {
	if pg >= int64(len(d.blocks)) {
		d.blocks = append(d.blocks, make([][]byte, pg+1-int64(len(d.blocks)))...)
	}
	b := d.blocks[pg]
	if n <= len(b) {
		return b
	}
	if n <= cap(b) {
		have := len(b)
		b = b[:n]
		clear(b[have:])
	} else {
		grown := make([]byte, n, min(max(n, 2*cap(b)), abi.PageSize))
		copy(grown, b)
		b = grown
	}
	d.blocks[pg] = b
	return b
}

// pageOf splits a file offset into its page number and in-page offset.
func pageOf(off int64) (int64, int) {
	return off / abi.PageSize, int(off % abi.PageSize)
}
