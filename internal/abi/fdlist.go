package abi

import "encoding/binary"

// A descriptor list is a little-endian u32 vector. Batched accept4
// replies carry the accepted guest descriptors this way (one ring
// completion, N connections); epoll_wait replies reuse it for
// ready-descriptor vectors. It lives in abi because both the simulated
// kernel and the anception layer need it and the kernel cannot import
// marshal.

// AppendFD appends one descriptor to a descriptor list.
func AppendFD(list []byte, fd int) []byte {
	return binary.LittleEndian.AppendUint32(list, uint32(fd))
}

// PutFD overwrites the i-th descriptor of a descriptor list.
func PutFD(list []byte, i, fd int) {
	binary.LittleEndian.PutUint32(list[4*i:], uint32(fd))
}

// FDAt returns the i-th descriptor of a descriptor list.
func FDAt(list []byte, i int) int {
	return int(int32(binary.LittleEndian.Uint32(list[4*i:])))
}

// DecodeFDList unpacks a descriptor list. A ragged tail (length not a
// multiple of 4) means a corrupt frame.
func DecodeFDList(b []byte) ([]int, error) {
	if len(b)%4 != 0 {
		return nil, EINVAL
	}
	fds := make([]int, len(b)/4)
	for i := range fds {
		fds[i] = FDAt(b, i)
	}
	return fds, nil
}
