//go:build !linux

package bench

import "syscall"

// serverProcAttr has no parent-death signal to set outside Linux.
func serverProcAttr() *syscall.SysProcAttr { return nil }
