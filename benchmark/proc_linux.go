package main

import (
	"os/exec"
	"syscall"
)

// dieWithParent has the kernel kill the child if the benchmark itself dies
// without running its cleanups (SIGKILL, a crash).
func dieWithParent(cmd *exec.Cmd) {
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
}
