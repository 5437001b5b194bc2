package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
)

// provenance identifies what was measured and where, so a number can
// never be read against a baseline taken on another machine or commit.
// Outside a git checkout git_sha reads "none"; tree_sha256 then still
// identifies the measured sources.
func provenance(root, workload string, seed int64) map[string]string {
	sha, dirty := "none", "unknown"
	if _, err := os.Stat(filepath.Join(root, ".git")); err == nil {
		if out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output(); err == nil {
			sha = strings.TrimSpace(string(out))
		}
		if out, err := exec.Command("git", "-C", root, "status", "--porcelain").Output(); err == nil {
			dirty = strconv.FormatBool(len(strings.TrimSpace(string(out))) > 0)
		}
	}
	return map[string]string{
		"git_sha":     sha,
		"git_dirty":   dirty,
		"tree_sha256": treeDigest(root),
		"cpu_model":   cpuModel(),
		"nproc":       strconv.Itoa(runtime.NumCPU()),
		"gomaxprocs":  strconv.Itoa(runtime.GOMAXPROCS(0)),
		"go_version":  runtime.Version(),
		"workload":    workload,
		"seed":        strconv.FormatInt(seed, 10),
	}
}

// treeDigest hashes every Go source and go.mod under root (build output
// excluded), in path order.
func treeDigest(root string) string {
	h := sha256.New()
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil // unreadable entries are skipped, not fatal
		}
		if d.IsDir() && (d.Name() == ".bench_build" || d.Name() == ".git") {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return nil
		}
		rel, _ := filepath.Rel(root, path)
		h.Write([]byte(rel))
		h.Write(data)
		return nil
	})
	return hex.EncodeToString(h.Sum(nil))
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// freshPeak collects garbage, returns free memory to the OS and restarts
// the kernel's resident-set high-water mark, so the next peakRSSMB reading
// covers only what runs after it. Where the mark cannot be reset, readings
// stay cumulative.
func freshPeak() {
	debug.FreeOSMemory()
	if f, err := os.OpenFile("/proc/self/clear_refs", os.O_WRONLY, 0); err == nil {
		_, _ = f.Write([]byte("5")) // "5" resets VmHWM to the current RSS
		_ = f.Close()
	}
}

// peakRSSMB reads the process's resident-set high-water mark (VmHWM).
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}
