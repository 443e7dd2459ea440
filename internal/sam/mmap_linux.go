//go:build linux

package sam

import (
	"os"
	"syscall"
)

// mmapFile maps f, size bytes long, read-only and returns the mapping
// plus its unmap function. The batch line engine parses straight out of
// the page cache through it: no read syscalls, no kernel→user copy, no chunk buffers.
// Open falls back to streamed reads when mapping fails (empty file,
// pipe, filesystem without mmap).
func mmapFile(f *os.File, size int64) ([]byte, func(), error) {
	if size <= 0 || int64(int(size)) != size {
		return nil, nil, syscall.EINVAL
	}
	data, err := syscall.Mmap(int(f.Fd()), 0, int(size), syscall.PROT_READ, syscall.MAP_SHARED)
	if err != nil {
		return nil, nil, err
	}
	// The engine walks a share front to back; tell the kernel so
	// readahead stays aggressive.
	_ = syscall.Madvise(data, syscall.MADV_SEQUENTIAL)
	return data, func() { _ = syscall.Munmap(data) }, nil
}
