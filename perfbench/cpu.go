package main

import (
	"os"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// cpuTime is the user+system CPU time this process has used.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// clockTick is the unit of the CPU times in /proc/<pid>/stat (USER_HZ,
// 100 on Linux).
const clockTick = 10 * time.Millisecond

// procCPU is the user+system CPU time process pid has used, from
// /proc/<pid>/stat; 0 when it cannot be read.
func procCPU(pid int) time.Duration {
	b, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/stat")
	if err != nil {
		return 0
	}
	// The command name may hold spaces; fields resume after its ')'.
	s := string(b)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0
	}
	return time.Duration(utime+stime) * clockTick
}
