//go:build !linux

package main

import "time"

func sleepUntilDue(d time.Duration) { time.Sleep(d) }
