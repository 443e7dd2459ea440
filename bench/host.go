package main

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
)

// hostInfo is written into every result: two result sets compare only
// when these agree.
type hostInfo struct {
	CPUModel   string `json:"cpu_model"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	WorkDir    string `json:"work_dir"`
	Filesystem string `json:"filesystem"`
}

func describeHost(workDir string) hostInfo {
	h := hostInfo{
		CPUModel: "unknown", NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Commit: "unknown", WorkDir: workDir, Filesystem: filesystemOf(workDir),
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	// A checkout that is not a git repository has no commit to name.
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		h.Commit = strings.TrimSpace(string(out))
	}
	return h
}

// filesystemOf names the filesystem a path lives on.
func filesystemOf(path string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(path, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0x01021994:
		return "tmpfs"
	case 0xEF53:
		return "ext4"
	case 0x794c7630:
		return "overlay"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	case 0x6969:
		return "nfs"
	}
	return fmt.Sprintf("0x%x", uint32(st.Type))
}

// shmMinFree is the free space /dev/shm must have before the work
// directory goes there.
const shmMinFree = 2 << 30

// workRoot picks where the work directory is made. Outputs and the
// daemon's spool are rewritten all run long; on a disk-backed filesystem
// writeback lands on whichever cell is running, so memory-backed
// /dev/shm is preferred when it has room, then the system's temporary
// directory.
func workRoot(flag string) string {
	if flag != "" {
		return flag
	}
	var st syscall.Statfs_t
	if err := syscall.Statfs("/dev/shm", &st); err == nil && st.Bavail*uint64(st.Bsize) >= shmMinFree {
		return "/dev/shm"
	}
	return os.TempDir()
}

// makeWorkDir creates a fresh directory under the chosen root.
func makeWorkDir(flag string) (string, error) {
	root := workRoot(flag)
	if err := os.MkdirAll(root, 0o755); err != nil {
		return "", err
	}
	dir, err := os.MkdirTemp(root, "parseq-bench-")
	if err != nil {
		return "", err
	}
	return filepath.Abs(dir)
}
