package main

// What the operating system and the Go runtime report about the child triqd
// and about this process. Linux only: the numbers come from /proc.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"strings"
	"syscall"
)

// clockTicks is USER_HZ, the unit of utime and stime in /proc/<pid>/stat; it
// is 100 on every Linux platform Go supports.
const clockTicks = 100

// cpuSeconds is the user plus system CPU time a process has used so far.
func cpuSeconds(pid int) (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name may hold spaces; the numbered fields follow its ')'.
	_, rest, ok := strings.Cut(string(raw), ") ")
	f := strings.Fields(rest)
	if !ok || len(f) < 13 {
		return 0, fmt.Errorf("/proc/%d/stat: unexpected format", pid)
	}
	utime, err1 := strconv.ParseFloat(f[11], 64)
	stime, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("/proc/%d/stat: bad cpu fields", pid)
	}
	return (utime + stime) / clockTicks, nil
}

// selfCPUSeconds is this process's own CPU time: the load generator's cost.
func selfCPUSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// procValue reads one "key: number [unit]" line of a /proc file.
func procValue(path, key string) (float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	for sc := bufio.NewScanner(f); sc.Scan(); {
		if rest, ok := strings.CutPrefix(sc.Text(), key+":"); ok {
			if fs := strings.Fields(rest); len(fs) > 0 {
				return strconv.ParseFloat(fs[0], 64)
			}
		}
	}
	return 0, fmt.Errorf("%s: no %s line", path, key)
}

// peakRSSMB is the high-water mark of a process's resident set (VmHWM).
func peakRSSMB(pid int) (float64, error) {
	kb, err := procValue(fmt.Sprintf("/proc/%d/status", pid), "VmHWM")
	return kb / 1024, err
}

// diskWriteBytes is the bytes this process has caused to be written to the
// storage layer (write_bytes in /proc/self/io).
func diskWriteBytes() (float64, error) { return procValue("/proc/self/io", "write_bytes") }

// totalAllocBytes asks a triqd for its cumulative heap allocation: the
// TotalAlloc line the runtime appends to the debug=1 heap profile.
func totalAllocBytes(base string) (float64, error) {
	resp, err := http.Get(base + "/debug/pprof/heap?debug=1")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, err
	}
	_, rest, ok := strings.Cut(string(raw), "# TotalAlloc = ")
	if !ok {
		return 0, fmt.Errorf("heap profile has no TotalAlloc line")
	}
	line, _, _ := strings.Cut(rest, "\n")
	return strconv.ParseFloat(strings.TrimSpace(line), 64)
}

// counter reads one counter of a triqd's metrics registry (/metrics.json).
func counter(base, name string) (float64, error) {
	resp, err := http.Get(base + "/metrics.json")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	var snap struct {
		Counters map[string]float64 `json:"counters"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		return 0, err
	}
	return snap.Counters[name], nil
}
