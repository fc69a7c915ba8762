package main

import (
	"errors"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"syscall"
	"unsafe"
)

// On a shared VM, a virtual CPU with nothing to run halts, and waking it
// waits on the host's scheduler. At light load the served workloads wake
// the vCPUs for every operation, so their latency measured the host: in
// one noisy spell on a 2-vCPU VM the 10k median read 0.70–0.87 ms, and
// 0.12–0.13 ms with every vCPU kept busy, against 0.11 ms on a quiet
// host. So the served runs start one spinner per CPU: a child at
// SCHED_IDLE, which any other thread preempts at once, so it takes only
// time nothing else wants and the vCPU never halts.

// schedIdle is Linux's SCHED_IDLE scheduling policy.
const schedIdle = 5

// spinMain turns this process into a spinner. It returns only if the
// policy cannot be set: a spinner at normal priority would compete with
// the system under test.
func spinMain() error {
	runtime.GOMAXPROCS(1)
	runtime.LockOSThread()
	var param struct{ priority int32 }
	if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_SETSCHEDULER, 0, schedIdle,
		uintptr(unsafe.Pointer(&param))); e != 0 {
		return fmt.Errorf("sched_setscheduler(SCHED_IDLE): %w", e)
	}
	for {
	}
}

// startSpinners starts one spinner per CPU. The returned stop kills them,
// waits for them, and fails if any had ended on its own, so a run whose
// vCPUs were not kept busy does not go unnoticed.
func startSpinners() (stop func() error, err error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var cmds []*exec.Cmd
	stop = func() error {
		var errs []error
		for _, c := range cmds {
			_ = c.Process.Kill()
			if err := c.Wait(); err != nil {
				if ws, ok := c.ProcessState.Sys().(syscall.WaitStatus); !ok || !ws.Signaled() || ws.Signal() != syscall.SIGKILL {
					errs = append(errs, fmt.Errorf("spinner: %w", err))
				}
			}
		}
		return errors.Join(errs...)
	}
	for i := 0; i < runtime.NumCPU(); i++ {
		cmd := exec.Command(exe, "-spin")
		cmd.Stderr = os.Stderr
		cmd.SysProcAttr = childAttr()
		if err := cmd.Start(); err != nil {
			_ = stop()
			return nil, err
		}
		cmds = append(cmds, cmd)
	}
	return stop, nil
}
