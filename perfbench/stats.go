package main

import (
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
)

// quantile returns the q-quantile (0..1) of xs by linear interpolation
// between closest ranks. xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// supports reports whether n samples leave at least ten beyond the
// q-quantile, the fewest a reported tail may rest on.
func supports(n int, q float64) bool { return float64(n)*(1-q) >= 10 }

func nsToMS(ns []int64) []float64 {
	out := make([]float64, len(ns))
	for i, n := range ns {
		out[i] = float64(n) / 1e6
	}
	return out
}

// procStatus reads one "Key:   value kB" field of /proc/<pid>/status, in
// KiB.
func procStatus(pid int, key string) (int64, bool) {
	data, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/status")
	if err != nil {
		return 0, false
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, key+":"); ok {
			f := strings.Fields(v)
			if len(f) == 0 {
				return 0, false
			}
			n, err := strconv.ParseInt(f[0], 10, 64)
			return n, err == nil
		}
	}
	return 0, false
}

// peakRSSMiB is VmHWM of a process in MiB.
func peakRSSMiB(pid int) float64 {
	kb, _ := procStatus(pid, "VmHWM")
	return float64(kb) / 1024
}

// procCPU returns a process's user+system CPU time from /proc/<pid>/stat.
func procCPU(pid int) time.Duration {
	data, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/stat")
	if err != nil {
		return 0
	}
	// The command name may contain spaces; fields resume after its ')'.
	s := string(data)
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return 0
	}
	f := strings.Fields(s[i+1:])
	// After ')': state(0) ... utime is field 14 of the full line, i.e. index 11 here.
	if len(f) < 13 {
		return 0
	}
	ut, _ := strconv.ParseInt(f[11], 10, 64)
	st, _ := strconv.ParseInt(f[12], 10, 64)
	const clockTicks = 100 // USER_HZ on Linux
	return time.Duration(ut+st) * time.Second / clockTicks
}
