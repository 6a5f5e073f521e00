package main

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
)

// hostBlock states where a result set was taken.
type hostBlock struct {
	CPUModel   string `json:"cpu_model"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
}

func readHost(root string) hostBlock {
	h := hostBlock{
		CPUModel:   "unknown",
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     "unknown",
	}
	if v, ok := procField("/proc/cpuinfo", "model name"); ok {
		h.CPUModel = v
	}
	// A checkout that is not a git repository (the driver's) has no commit.
	if out, err := exec.Command("git", "-C", root, "rev-parse", "--short", "HEAD").Output(); err == nil {
		h.Commit = strings.TrimSpace(string(out))
	}
	return h
}

func (h hostBlock) String() string {
	return fmt.Sprintf("host: %s, nproc %d, GOMAXPROCS %d, %s, commit %s",
		h.CPUModel, h.NProc, h.GOMAXPROCS, h.GoVersion, h.Commit)
}

// procField returns the value of the first "key : value" line of a
// /proc text file.
func procField(path, key string) (string, bool) {
	f, err := os.Open(path)
	if err != nil {
		return "", false
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(k) == key {
			return strings.TrimSpace(v), true
		}
	}
	return "", false
}

// peakRSSMB is the process's resident-set high-water mark (VmHWM), so
// memory spent on caches shows.
func peakRSSMB() (float64, error) {
	v, ok := procField("/proc/self/status", "VmHWM")
	if !ok {
		return 0, fmt.Errorf("no VmHWM in /proc/self/status")
	}
	kb, err := strconv.ParseFloat(strings.TrimSuffix(v, " kB"), 64)
	if err != nil {
		return 0, fmt.Errorf("parsing VmHWM %q: %w", v, err)
	}
	return kb / 1024, nil
}
