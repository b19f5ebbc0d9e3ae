package main

import "syscall"

// totalRAM is the host's physical memory in bytes.
func totalRAM() uint64 {
	var si syscall.Sysinfo_t
	if syscall.Sysinfo(&si) != nil {
		return 0
	}
	return uint64(si.Totalram) * uint64(si.Unit)
}
