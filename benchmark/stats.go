package main

import (
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// percentile is the nearest-rank percentile (p in (0,100]) of an
// ascending slice; 0 for an empty one.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// median averages the two middle values of an even-sized sample.
func median(v []float64) float64 {
	s := sortedCopy(v)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// mad is the median absolute deviation from the median.
func mad(v []float64) float64 {
	m := median(v)
	dev := make([]float64, len(v))
	for i, x := range v {
		dev[i] = math.Abs(x - m)
	}
	return median(dev)
}

// iqrShare is the contract's spread: the distance between the first
// and third quartile as a share of the median (Python's
// statistics.quantiles(values, n=4), exclusive method).
func iqrShare(v []float64) float64 {
	s := sortedCopy(v)
	n := len(s)
	med := median(s)
	if n < 2 || med == 0 {
		return 0
	}
	q := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4 // 1-based position
		lo := int(math.Floor(pos))
		if lo < 1 {
			return s[0]
		}
		if lo >= n {
			return s[n-1]
		}
		return s[lo-1] + (pos-float64(lo))*(s[lo]-s[lo-1])
	}
	return (q(3) - q(1)) / math.Abs(med)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// usage is a point-in-time reading of what the process has consumed;
// two of them bracket a timed phase.
type usage struct {
	wall      time.Time
	cpu       time.Duration // user + system
	mallocs   uint64
	allocated uint64
	gcPause   time.Duration
}

func readUsage() usage {
	var ru syscall.Rusage
	// Getrusage(RUSAGE_SELF) cannot fail with a valid pointer.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return usage{
		wall:      time.Now(),
		cpu:       time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		mallocs:   m.Mallocs,
		allocated: m.TotalAlloc,
		gcPause:   time.Duration(m.PauseTotalNs),
	}
}

// peakRSSMB is the process's resident-set high-water mark: VmHWM from
// /proc/self/status. ru_maxrss is only the fallback where procfs cannot
// be read: across exec it keeps the peak of the program that started
// this one, so under `go run` it reads the go command's memory.
func peakRSSMB() float64 {
	if raw, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(raw), "\n") {
			if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" { // "VmHWM:  14712 kB"
				if kb, err := strconv.ParseFloat(f[1], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
