package main

import (
	"bufio"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"fidr/internal/lanes"
)

// envStamp records where and how a set of numbers was taken.
type envStamp struct {
	Commit        string  `json:"commit"`
	GoVersion     string  `json:"go_version"`
	GOOS          string  `json:"goos"`
	GOARCH        string  `json:"goarch"`
	CPUModel      string  `json:"cpu_model"`
	NumCPU        int     `json:"nproc"`
	GOMAXPROCS    int     `json:"gomaxprocs"`
	HashLanes     int     `json:"hash_lanes"`
	CompressLanes int     `json:"compress_lanes"`
	Kernel        string  `json:"kernel"`
	WorkDir       string  `json:"work_dir"`
	WorkDirFS     string  `json:"work_dir_fs"`
	Seed          int64   `json:"seed"`
	Seconds       float64 `json:"seconds"`
	Passes        int     `json:"passes_flag"`
	IOs           int     `json:"ios_flag"`
	Time          string  `json:"time"`
}

// stampEnv pins GOMAXPROCS to min(nproc, 4) and records the environment.
// Lanes stay at the config default, which derives from GOMAXPROCS; the
// resolved value is recorded.
func stampEnv(o options) envStamp {
	procs := min(runtime.NumCPU(), 4)
	runtime.GOMAXPROCS(procs)
	e := envStamp{
		Commit: "unknown", GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		CPUModel: "unknown", NumCPU: runtime.NumCPU(), GOMAXPROCS: procs,
		HashLanes: lanes.Normalize(0), CompressLanes: lanes.Normalize(0),
		Kernel: "unknown", WorkDir: o.workDir, WorkDirFS: "unknown",
		Seed: o.seed, Seconds: o.seconds, Passes: o.passes, IOs: o.ios,
		Time: time.Now().UTC().Format(time.RFC3339),
	}
	// The driver's checkout is not a git repository; the commit is then unknown.
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		e.Commit = strings.TrimSpace(string(out))
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				e.CPUModel = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		e.Kernel = strings.TrimSpace(string(b))
	}
	if err := os.MkdirAll(o.workDir, 0o755); err == nil {
		var fs syscall.Statfs_t
		if syscall.Statfs(o.workDir, &fs) == nil {
			e.WorkDirFS = fsName(int64(fs.Type))
		}
	}
	return e
}

func fsName(magic int64) string {
	switch magic {
	case 0xEF53:
		return "ext4"
	case 0x01021994:
		return "tmpfs"
	case 0x794c7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	case 0x6969:
		return "nfs"
	case 0x65735546:
		return "fuse"
	}
	return "0x" + strconv.FormatInt(magic, 16)
}
