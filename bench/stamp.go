package bench

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// Stamp identifies the machine, toolchain and revision a result was
// measured on, so a comparison can tell a regression from a different
// host.
type Stamp struct {
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	CPU        string `json:"cpu"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Revision   string `json:"vcs_revision"`
	Seed       int64  `json:"seed"`
	Time       string `json:"time_utc"`
}

// NewStamp describes this process for a run with the given seed.
func NewStamp(seed int64) Stamp {
	st := Stamp{
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		CPU:        cpuModel(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Revision:   "unknown",
		Seed:       seed,
		Time:       time.Now().UTC().Format(time.RFC3339),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" && s.Value != "" {
				st.Revision = s.Value
			}
		}
	}
	return st
}

// Header renders the stamp as the text header line.
func (s Stamp) Header() string {
	return fmt.Sprintf("# cogbench %s/%s cpu=%q num_cpu=%d gomaxprocs=%d go=%s rev=%s seed=%d time=%s",
		s.GOOS, s.GOARCH, s.CPU, s.NumCPU, s.GOMAXPROCS, s.GoVersion, s.Revision, s.Seed, s.Time)
}

// cpuModel reads the CPU model name from /proc/cpuinfo; elsewhere it
// reports "unknown".
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

// initAge is the time from launch to this package's initialisation:
// exec, runtime start-up and the init functions of every package the
// program links, so work a change moves into initialisation shows in
// setup_s. run.sh stamps the launch time in COGBENCH_LAUNCH_NS (Unix
// nanoseconds) just before starting the binary; without it the age is
// unknown and counts as 0.
var initAge = launchAge(os.Getenv("COGBENCH_LAUNCH_NS"))

func launchAge(ns string) time.Duration {
	n, err := strconv.ParseInt(ns, 10, 64)
	if err != nil {
		return 0
	}
	return max(time.Since(time.Unix(0, n)), 0)
}

// cpuTime returns the user plus system CPU time this process has used.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
