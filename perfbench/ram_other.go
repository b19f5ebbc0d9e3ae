//go:build !linux

package main

// totalRAM is unknown off Linux and reported as 0.
func totalRAM() uint64 { return 0 }
