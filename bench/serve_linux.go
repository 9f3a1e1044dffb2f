package bench

import "syscall"

// serverProcAttr makes the kernel kill the server when rbbench dies, so
// a benchmark killed mid-run leaves no server behind.
func serverProcAttr() *syscall.SysProcAttr {
	return &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
}
