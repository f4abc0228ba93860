// Package abi defines the system-call ABI of the simulated device: errno
// values, open flags, file modes, and the system-call number table whose
// classification Section V-D of the paper analyzes.
package abi

import "fmt"

// Errno is a Unix-style error number. It implements error so kernel and
// service code can return it directly; callers match with errors.Is.
type Errno int

// Errno values used by the simulated kernel. The numeric values follow
// Linux on ARM where it matters for readability of traces.
const (
	EPERM   Errno = 1  // operation not permitted
	ENOENT  Errno = 2  // no such file or directory
	ESRCH   Errno = 3  // no such process
	EINTR   Errno = 4  // interrupted system call
	EIO     Errno = 5  // I/O error
	ENXIO   Errno = 6  // no such device or address
	E2BIG   Errno = 7  // argument list too long
	EBADF   Errno = 9  // bad file descriptor
	ECHILD  Errno = 10 // no child processes
	EAGAIN  Errno = 11 // try again
	ENOMEM  Errno = 12 // out of memory
	EACCES  Errno = 13 // permission denied
	EFAULT  Errno = 14 // bad address
	EBUSY   Errno = 16 // device or resource busy
	EEXIST  Errno = 17 // file exists
	EXDEV   Errno = 18 // cross-device link
	ENODEV  Errno = 19 // no such device
	ENOTDIR Errno = 20 // not a directory
	EISDIR  Errno = 21 // is a directory
	EINVAL  Errno = 22 // invalid argument
	ENFILE  Errno = 23 // file table overflow
	EMFILE  Errno = 24 // too many open files
	ENOTTY  Errno = 25 // not a typewriter
	EFBIG   Errno = 27 // file too large
	ENOSPC  Errno = 28 // no space left on device
	ESPIPE  Errno = 29 // illegal seek
	EROFS   Errno = 30 // read-only file system
	EMLINK  Errno = 31 // too many links
	EPIPE   Errno = 32 // broken pipe
	ERANGE  Errno = 34 // result out of range
	ELOOP   Errno = 40 // too many symbolic links
	ENOSYS  Errno = 38 // function not implemented

	ENOTSOCK    Errno = 88  // socket operation on non-socket
	EMSGSIZE    Errno = 90  // message too long
	EOPNOTSUPP  Errno = 95  // operation not supported
	EADDRINUSE  Errno = 98  // address already in use
	ENETUNREACH Errno = 101 // network is unreachable
	ETIMEDOUT   Errno = 110 // connection timed out
	EHOSTDOWN   Errno = 112 // host is down
	ESTALE      Errno = 116 // stale file handle
)

// Error implements the error interface with the strerror text.
func (e Errno) Error() string {
	if name, ok := errnoNames[e]; ok {
		return name
	}
	return fmt.Sprintf("errno %d", int(e))
}

// Valid reports whether e is one of the errno values above; 0 is not.
func (e Errno) Valid() bool {
	_, ok := errnoNames[e]
	return ok
}

var errnoNames = map[Errno]string{
	EPERM:   "operation not permitted",
	ENOENT:  "no such file or directory",
	ESRCH:   "no such process",
	EINTR:   "interrupted system call",
	EIO:     "I/O error",
	ENXIO:   "no such device or address",
	E2BIG:   "argument list too long",
	EBADF:   "bad file descriptor",
	ECHILD:  "no child processes",
	EAGAIN:  "resource temporarily unavailable",
	ENOMEM:  "out of memory",
	EACCES:  "permission denied",
	EFAULT:  "bad address",
	EBUSY:   "device or resource busy",
	EEXIST:  "file exists",
	EXDEV:   "cross-device link",
	ENODEV:  "no such device",
	ENOTDIR: "not a directory",
	EISDIR:  "is a directory",
	EINVAL:  "invalid argument",
	ENFILE:  "file table overflow",
	EMFILE:  "too many open files",
	ENOTTY:  "inappropriate ioctl for device",
	EFBIG:   "file too large",
	ENOSPC:  "no space left on device",
	ESPIPE:  "illegal seek",
	EROFS:   "read-only file system",
	EMLINK:  "too many links",
	EPIPE:   "broken pipe",
	ERANGE:  "result out of range",
	ELOOP:   "too many levels of symbolic links",
	ENOSYS:  "function not implemented",

	ENOTSOCK:    "socket operation on non-socket",
	EMSGSIZE:    "message too long",
	EOPNOTSUPP:  "operation not supported",
	EADDRINUSE:  "address already in use",
	ENETUNREACH: "network is unreachable",
	ETIMEDOUT:   "connection timed out",
	EHOSTDOWN:   "host is down",
	ESTALE:      "stale file handle",
}
