package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"syscall"
	"time"
	"unsafe"
)

// A vCPU of the shared reference host that goes idle is taken away, and
// comes back late when its neighbours are busy: a goroutine woken on it
// waits for milliseconds, so that anything that blocks at a barrier, on a
// mailbox or on the network runs up to three times slower for minutes, and
// nothing that never blocks does. Booting with idle=poll is the usual cure;
// burners are the same thing from user space: one child process per CPU
// that spins at idle priority, so that it runs only when nothing else would
// and is preempted the moment anything else can, and no vCPU ever idles
// while the benchmark measures.
type burners struct {
	cmds  []*exec.Cmd
	stdin []io.Closer
}

// startBurners starts one burner per CPU, each a child of this same binary
// run with -burn. A host that does not let a child lower its priority gets
// no burners: spinning at normal priority would take half the machine.
func startBurners(ctx context.Context) (*burners, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	b := &burners{}
	for i := 0; i < runtime.NumCPU(); i++ {
		cmd := exec.CommandContext(ctx, self, "-burn")
		in, err := cmd.StdinPipe()
		if err != nil {
			b.stop()
			return nil, err
		}
		out, err := cmd.StdoutPipe()
		if err != nil {
			b.stop()
			return nil, err
		}
		if err := cmd.Start(); err != nil {
			b.stop()
			return nil, err
		}
		b.cmds, b.stdin = append(b.cmds, cmd), append(b.stdin, in)
		line, _ := bufio.NewReader(out).ReadString('\n') // an empty line is a refusal
		if strings.TrimSpace(line) != burnReady {
			b.stop()
			return nil, fmt.Errorf("burner %d could not lower its priority", i)
		}
	}
	return b, nil
}

// stop ends the burners and waits for each: a burner exits when its
// standard input closes.
func (b *burners) stop() {
	if b == nil {
		return
	}
	for _, in := range b.stdin {
		_ = in.Close() // the burner reads nothing; closing is the signal
	}
	for _, cmd := range b.cmds {
		done := make(chan struct{})
		go func() {
			defer close(done)
			_ = cmd.Wait() // a burner that was refused exits 1; either way it is gone
		}()
		select {
		case <-done:
		case <-time.After(2 * time.Second):
			_ = cmd.Process.Kill()
			<-done
		}
	}
	b.cmds, b.stdin = nil, nil
}

const burnReady = "burning"

// burn is the child: it lowers the priority of one thread as far as the
// host allows, says so, spins on it, and exits when the parent closes its
// standard input or dies.
func burn() error {
	lowered := make(chan bool)
	go func() {
		runtime.LockOSThread()
		lowered <- idlePriority()
		for {
		}
	}()
	if !<-lowered {
		return fmt.Errorf("cannot lower the burner's priority")
	}
	fmt.Println(burnReady)
	_, err := io.Copy(io.Discard, os.Stdin)
	return err
}

// idlePriority moves the calling thread to Linux's SCHED_IDLE class, or
// failing that to the lowest nice level, and reports whether either worked.
func idlePriority() bool {
	const schedIdle = 5
	var param struct{ priority int32 }
	if _, _, errno := syscall.Syscall(syscall.SYS_SCHED_SETSCHEDULER, 0, schedIdle, uintptr(unsafe.Pointer(&param))); errno == 0 {
		return true
	}
	return syscall.Setpriority(syscall.PRIO_PROCESS, 0, 19) == nil
}
