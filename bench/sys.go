package main

import (
	"fmt"
	"syscall"
	"time"
)

// cpuTime returns the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// fsType names the filesystem holding path, so a WAL number is never read
// without knowing what kind of storage took the fsyncs.
func fsType(path string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(path, &st); err != nil {
		return "unknown filesystem"
	}
	names := map[int64]string{
		0x01021994: "tmpfs", 0xEF53: "ext2/3/4", 0x794c7630: "overlayfs",
		0x58465342: "xfs", 0x9123683E: "btrfs", 0x6969: "nfs", 0x65735546: "fuse",
	}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return fmt.Sprintf("filesystem type %#x", st.Type)
}

// sleepPrecisely blocks the calling thread in nanosleep(2). time.Sleep parks
// the goroutine on the runtime's timer heap, which an otherwise idle process
// services from epoll_wait at millisecond granularity; an open-loop generator
// paced by it would run up to a millisecond late on every publication and
// that lateness, not the program, would set the measured latency.
func sleepPrecisely(d time.Duration) {
	if d <= 0 {
		return
	}
	ts := syscall.NsecToTimespec(int64(d))
	for {
		var rem syscall.Timespec
		if err := syscall.Nanosleep(&ts, &rem); err != syscall.EINTR {
			return
		}
		ts = rem
	}
}

// tightenTimerSlack asks the kernel to fire the calling thread's timers
// within 1 µs of their deadline instead of the default 50 µs. The paced
// generator calls it once it has locked itself to a thread.
func tightenTimerSlack() {
	const prSetTimerslack = 29
	// Best effort: with the default slack the generator merely runs a
	// little later, and reports it.
	_, _, _ = syscall.Syscall(syscall.SYS_PRCTL, prSetTimerslack, 1000, 0)
}
