package main

import (
	"errors"
	"syscall"
	"time"
)

// sleepUntilDue blocks for d on a kernel high-resolution timer. The Go
// runtime parks an idle process in epoll with millisecond resolution, so
// time.Sleep can wake an open-loop worker up to a millisecond late; that
// lateness would count as latency of every request it delays.
func sleepUntilDue(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	for {
		var rem syscall.Timespec
		err := syscall.Nanosleep(&ts, &rem)
		if !errors.Is(err, syscall.EINTR) {
			return
		}
		ts = rem
	}
}
