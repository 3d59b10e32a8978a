package main

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// hostRecord travels with every result, so a run on a noisy neighbour is
// visible in the output instead of being blamed on the code.
type hostRecord struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	CPUModel   string  `json:"cpu_model"`
	Seconds    float64 `json:"seconds"`
	StealPct   float64 `json:"steal_pct"`

	start     time.Time
	cpu0      cpuJiffies
	cpu0Valid bool
}

func newHostRecord() *hostRecord {
	h := &hostRecord{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPUModel:   cpuModel(),
		start:      time.Now(),
	}
	h.cpu0, h.cpu0Valid = readCPUJiffies()
	return h
}

// finish closes the record: wall time and the share of CPU time the
// hypervisor stole across the run.
func (h *hostRecord) finish() {
	h.Seconds = time.Since(h.start).Seconds()
	if cpu1, ok := readCPUJiffies(); ok && h.cpu0Valid {
		h.StealPct = stealPct(h.cpu0, cpu1)
	}
}

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

// cpuJiffies is the aggregate "cpu" line of /proc/stat.
type cpuJiffies struct {
	total, steal uint64
}

func readCPUJiffies() (cpuJiffies, bool) {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuJiffies{}, false
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return cpuJiffies{}, false
	}
	var j cpuJiffies
	for i, s := range f[1:] {
		v, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			return cpuJiffies{}, false
		}
		// Fields 9 and 10 (guest, guest_nice) are already counted in
		// user and nice.
		if i < 8 {
			j.total += v
		}
		if i == 7 {
			j.steal = v
		}
	}
	return j, true
}

func stealPct(a, b cpuJiffies) float64 {
	if b.total <= a.total {
		return 0
	}
	return 100 * float64(b.steal-a.steal) / float64(b.total-a.total)
}

// clockTicks is USER_HZ, the unit of /proc/<pid>/stat CPU times; it is
// 100 on every Linux architecture Go supports.
const clockTicks = 100

// procCPU returns a live process's user+system CPU time.
func procCPU(pid int) (time.Duration, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may hold spaces; fields after it are
	// counted from the closing parenthesis.
	s := string(raw)
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	f := strings.Fields(s[i+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	// f[0] is field 3 (state); utime and stime are fields 14 and 15.
	ut, err1 := strconv.ParseUint(f[11], 10, 64)
	st, err2 := strconv.ParseUint(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("malformed /proc/%d/stat times", pid)
	}
	return time.Duration(ut+st) * time.Second / clockTicks, nil
}

// procPeakRSS returns a live process's peak resident set (VmHWM) in MB.
func procPeakRSS(pid int) (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) != 2 || f[1] != "kB" {
				break
			}
			kb, err := strconv.ParseFloat(f[0], 64)
			if err != nil {
				break
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// exitUsage returns a finished command's CPU (its own plus every child it
// waited for) and the peak RSS in MB of the largest of those processes.
func exitUsage(cmd *exec.Cmd) (cpu time.Duration, peakMB float64) {
	ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage)
	if !ok {
		return 0, 0
	}
	cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	return cpu, float64(ru.Maxrss) / 1024
}

// selfCPU is this process's user+system CPU time so far.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// command builds a child process that the kernel kills if the benchmark
// dies first, so no run leaves a process behind.
func command(name string, args ...string) *exec.Cmd {
	cmd := exec.Command(name, args...)
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	return cmd
}
