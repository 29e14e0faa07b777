package main

import (
	"bufio"
	"debug/buildinfo"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

// host records the machine and build a report was measured on.
type host struct {
	cpuModel          string
	nproc, gomaxprocs int
	goVersion         string
	commit, dirty     string
}

func (h host) String() string {
	return fmt.Sprintf("cpu=%q nproc=%d gomaxprocs=%d go=%s commit=%s dirty=%s",
		h.cpuModel, h.nproc, h.gomaxprocs, h.goVersion, h.commit, h.dirty)
}

// describeHost gathers the host and build of the paperbench binary bin.
func describeHost(bin string) host {
	h := host{
		cpuModel:   cpuModel(),
		nproc:      runtime.NumCPU(),
		gomaxprocs: runtime.GOMAXPROCS(0),
		goVersion:  runtime.Version(),
		commit:     "none",
		dirty:      "unknown",
	}
	if info, err := buildinfo.ReadFile(bin); err == nil {
		h.goVersion = info.GoVersion
	}
	if rev, err := git("rev-parse", "HEAD"); err == nil {
		h.commit = strings.TrimSpace(rev)
		if st, err := git("status", "--porcelain", "--untracked-files=no"); err == nil {
			h.dirty = fmt.Sprint(strings.TrimSpace(st) != "")
		}
	}
	return h
}

// git runs a git command confined to the current directory: the ceiling
// stops git from searching parent directories for a repository.
func git(args ...string) (string, error) {
	wd, err := os.Getwd()
	if err != nil {
		return "", err
	}
	cmd := exec.Command("git", args...)
	cmd.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(wd))
	out, err := cmd.Output()
	return string(out), err
}

// cpuModel returns the first "model name" in /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
