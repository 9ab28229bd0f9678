package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// The plain run measures in child processes: the parent generates the
// inputs and writes them to files, and a fresh child reads each file,
// rewrites it, as e9tool does, and checks the output. Peak RSS is the
// child's own, read before the checks, so input generation and the
// checks stay out of it.
//
// Protocol: the child prints "ready", then answers each op (one JSON
// line on stdin) with one reply (one JSON line on stdout), and exits
// when stdin closes.

const childEnv = "PERFBENCH_CHILD"

// maybeChild turns the process into a measuring child when childEnv is
// set. main and TestMain call it first.
func maybeChild() {
	if os.Getenv(childEnv) == "" {
		return
	}
	if err := serveChild(os.Stdin, os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench child: %v\n", err)
		os.Exit(1)
	}
	os.Exit(0)
}

func serveChild(r io.Reader, w io.Writer) error {
	in := bufio.NewScanner(r)
	in.Buffer(make([]byte, 1<<20), 1<<20)
	out := bufio.NewWriter(w)
	enc := json.NewEncoder(out)
	if _, err := fmt.Fprintln(out, "ready"); err != nil {
		return err
	}
	if err := out.Flush(); err != nil {
		return err
	}
	for in.Scan() {
		var o op
		if err := json.Unmarshal(in.Bytes(), &o); err != nil {
			return fmt.Errorf("bad op: %w", err)
		}
		rep, err := perform(&o)
		if err != nil {
			rep = &reply{Err: err.Error()}
		}
		if err := enc.Encode(rep); err != nil {
			return err
		}
		if err := out.Flush(); err != nil {
			return err
		}
	}
	return in.Err()
}

// child is the parent's handle on a measuring child.
type child struct {
	cmd   *exec.Cmd
	stdin io.WriteCloser
	out   *bufio.Scanner
}

// startChild re-executes the running binary as a child and waits until
// it is ready.
func startChild() (*child, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(), childEnv+"=1")
	cmd.Stderr = os.Stderr
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	c := &child{cmd: cmd, stdin: stdin, out: bufio.NewScanner(stdout)}
	c.out.Buffer(make([]byte, 1<<20), 1<<20)
	if !c.out.Scan() || c.out.Text() != "ready" {
		c.wait()
		return nil, fmt.Errorf("child did not start")
	}
	return c, nil
}

// do sends one op and waits for its reply.
func (c *child) do(o *op) (*reply, error) {
	line, err := json.Marshal(o)
	if err != nil {
		return nil, err
	}
	if _, err := c.stdin.Write(append(line, '\n')); err != nil {
		return nil, fmt.Errorf("child: %w", err)
	}
	if !c.out.Scan() {
		return nil, fmt.Errorf("child exited: %v", c.out.Err())
	}
	var rep reply
	if err := json.Unmarshal(c.out.Bytes(), &rep); err != nil {
		return nil, fmt.Errorf("child: bad reply: %w", err)
	}
	return &rep, nil
}

// wait closes the child's input and waits for it to exit.
func (c *child) wait() error {
	c.stdin.Close()
	if err := c.cmd.Wait(); err != nil {
		return fmt.Errorf("child: %w", err)
	}
	return nil
}

// peakRSS reads the kernel's RSS high-water mark for this process's own
// address space (VmHWM) in MB. The child reports it rather than the
// parent reading ru_maxrss, because an exec'd child's ru_maxrss starts
// from its parent's RSS.
func peakRSS() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}
