//go:build !linux

package main

import "os/exec"

// dieWithParent is a no-op where the kernel offers no parent-death signal;
// the benchmark's own cleanups stop the child.
func dieWithParent(*exec.Cmd) {}
