//go:build !linux

package sam

import (
	"errors"
	"os"
)

// mmapFile is unavailable off Linux; the batch line engine then
// streams a share through pooled chunks instead.
func mmapFile(f *os.File, size int64) ([]byte, func(), error) {
	return nil, nil, errors.New("sam: mmap not supported on this platform")
}
