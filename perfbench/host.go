package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// processCPU is the process's user+system CPU time so far. Under heavy
// steal it is the steadiest clock the host offers: stolen time stretches
// wall clocks but is not charged to the process.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// hostTicks is the aggregate "cpu" line of /proc/stat: all jiffies and the
// stolen ones. Both are zero where /proc/stat is unreadable.
func hostTicks() (total, steal uint64) {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return 0, 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		return 0, 0
	}
	fields := strings.Fields(sc.Text())
	if len(fields) < 2 || fields[0] != "cpu" {
		return 0, 0
	}
	for i, v := range fields[1:] {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			return 0, 0
		}
		// Fields 9 and 10 (guest, guest_nice) are already counted in user
		// and nice.
		if i < 8 {
			total += n
		}
		if i == 7 {
			steal = n
		}
	}
	return total, steal
}

// hostMark is a point-in-time reading of the host-noise counters.
type hostMark struct {
	wall         time.Time
	cpu          time.Duration
	ticks, steal uint64
}

func markHost() hostMark {
	t, s := hostTicks()
	return hostMark{wall: time.Now(), cpu: processCPU(), ticks: t, steal: s}
}

// hostNoise is what the host did to a run: the share of all CPU time the
// hypervisor stole and how many CPUs the process kept busy on average. A
// wall-clock outlier with high steal is the host, not the code.
type hostNoise struct {
	StealFrac, CPUPerWall float64
	Nproc, GOMAXPROCS     int
	GoVersion             string
}

func noiseSince(m hostMark) hostNoise {
	now := markHost()
	h := hostNoise{Nproc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version()}
	if dt := now.ticks - m.ticks; dt > 0 {
		h.StealFrac = float64(now.steal-m.steal) / float64(dt)
	}
	if w := now.wall.Sub(m.wall); w > 0 {
		h.CPUPerWall = float64(now.cpu-m.cpu) / float64(w)
	}
	return h
}

// Go runtime counters the go.* layer metrics read.
var runtimeMetricNames = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/gc/cycles/total:gc-cycles",
	"/sched/latencies:seconds",
}

// goMark is one runtime/metrics reading.
type goMark struct {
	gcCPU, totalCPU, idleCPU float64
	allocBytes, allocObjects uint64
	gcCycles                 uint64
	schedLat                 []uint64
	schedBuckets             []float64
}

func markGo() goMark {
	s := make([]metrics.Sample, len(runtimeMetricNames))
	for i, n := range runtimeMetricNames {
		s[i].Name = n
	}
	metrics.Read(s)
	h := s[6].Value.Float64Histogram()
	return goMark{
		gcCPU: s[0].Value.Float64(), totalCPU: s[1].Value.Float64(), idleCPU: s[2].Value.Float64(),
		allocBytes: s[3].Value.Uint64(), allocObjects: s[4].Value.Uint64(),
		gcCycles:     s[5].Value.Uint64(),
		schedLat:     append([]uint64(nil), h.Counts...),
		schedBuckets: h.Buckets,
	}
}

// goDelta accumulates runtime activity over measured intervals only, so
// the go.* metrics describe the program and not the benchmark's own
// bookkeeping between trials.
type goDelta struct {
	gcCPU, busyCPU           float64
	allocBytes, allocObjects uint64
	gcCycles                 uint64
	schedLat                 []uint64
	schedBuckets             []float64
}

func (d *goDelta) add(from, to goMark) {
	d.gcCPU += to.gcCPU - from.gcCPU
	d.busyCPU += (to.totalCPU - to.idleCPU) - (from.totalCPU - from.idleCPU)
	d.allocBytes += to.allocBytes - from.allocBytes
	d.allocObjects += to.allocObjects - from.allocObjects
	d.gcCycles += to.gcCycles - from.gcCycles
	if d.schedLat == nil {
		d.schedLat = make([]uint64, len(to.schedLat))
		d.schedBuckets = to.schedBuckets
	}
	for i := range to.schedLat {
		d.schedLat[i] += to.schedLat[i] - from.schedLat[i]
	}
}

// schedWaitP99 is the 99th percentile of goroutine run-queue wait, in
// seconds, read off the runtime's histogram at its bucket's upper bound.
func (d *goDelta) schedWaitP99() float64 {
	var n uint64
	for _, c := range d.schedLat {
		n += c
	}
	if n == 0 {
		return 0
	}
	target := uint64(float64(n) * 0.99)
	var seen uint64
	for i, c := range d.schedLat {
		seen += c
		if seen > target {
			hi := d.schedBuckets[i+1]
			if hi > 1e9 { // the last bucket is open-ended
				hi = d.schedBuckets[i]
			}
			return hi
		}
	}
	return 0
}
