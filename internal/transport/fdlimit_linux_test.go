package transport

import (
	"net"
	"os"
	"syscall"
	"testing"
	"time"
)

// TestAcceptBackoffErrnos: Accept waits out every errno that means out of
// descriptors or kernel memory, wrapped as net wraps an accept's error —
// winsock's WSAEMFILE (10024) and WSAENOBUFS (10055) included, which a
// windows accept returns and syscall does not name — and returns any other.
func TestAcceptBackoffErrnos(t *testing.T) {
	for _, c := range []struct {
		errno syscall.Errno
		wait  bool
	}{
		{syscall.EMFILE, true}, {syscall.ENFILE, true}, {syscall.ENOBUFS, true}, {syscall.ENOMEM, true},
		{10024, true}, {10055, true},
		{syscall.EBADF, false}, {syscall.EINVAL, false}, {syscall.ECONNABORTED, false}, {10038, false}, // WSAENOTSOCK
	} {
		err := &net.OpError{Op: "accept", Net: "tcp", Err: os.NewSyscallError("accept", c.errno)}
		if got := outOfResources(err); got != c.wait {
			t.Errorf("errno %d (%v): backoff %v, want %v", int(c.errno), c.errno, got, c.wait)
		}
	}
	if outOfResources(net.ErrClosed) {
		t.Error("a closed listener backs off")
	}
}

// TestAcceptWaitsOutDescriptorExhaustion: with the process out of
// descriptors, a pending connection makes accept(2) fail EMFILE; Accept
// waits that out instead of returning the error — which would end a
// CheckinRouter's or a coordinator's accept loop for good — and takes the
// connection once a descriptor is free. Closing the listener ends a backoff
// at once. It lowers the test process's own soft RLIMIT_NOFILE, so it must
// not run in parallel with anything that opens files.
func TestAcceptWaitsOutDescriptorExhaustion(t *testing.T) {
	var limit syscall.Rlimit
	if err := syscall.Getrlimit(syscall.RLIMIT_NOFILE, &limit); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = syscall.Setrlimit(syscall.RLIMIT_NOFILE, &limit) })
	l, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	// exhaust leaves one connection pending on l and lowers the soft limit to
	// the lowest free descriptor number, so the next descriptor cannot open.
	exhaust := func() {
		t.Helper()
		c, err := DialTCP(l.Addr())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = c.Close() })
		free, err := syscall.Dup(0)
		if err != nil {
			t.Fatal(err)
		}
		_ = syscall.Close(free)
		low := limit
		low.Cur = uint64(free)
		if err := syscall.Setrlimit(syscall.RLIMIT_NOFILE, &low); err != nil {
			t.Fatal(err)
		}
		if fd, err := syscall.Dup(0); err != syscall.EMFILE {
			_ = syscall.Close(fd)
			t.Fatalf("dup with the limit lowered: %v, want EMFILE", err)
		}
	}
	accept := func() <-chan error {
		got := make(chan error, 1)
		go func() {
			c, err := l.Accept()
			if err == nil {
				_ = c.Close()
			}
			got <- err
		}()
		return got
	}

	exhaust()
	got := accept()
	select {
	case err := <-got:
		t.Fatalf("Accept out of descriptors returned %v; want it to wait", err)
	case <-time.After(300 * time.Millisecond):
	}
	if err := syscall.Setrlimit(syscall.RLIMIT_NOFILE, &limit); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-got:
		if err != nil {
			t.Fatalf("Accept with descriptors free again: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the pending connection was not accepted once descriptors were free")
	}

	// By 700 ms the backoff sleeps 640 ms; Close must not wait it out.
	exhaust()
	got = accept()
	time.Sleep(700 * time.Millisecond)
	closed := time.Now()
	_ = l.Close()
	select {
	case err := <-got:
		if err == nil {
			t.Fatal("Accept on a closed listener returned a connection")
		}
		if d := time.Since(closed); d > 300*time.Millisecond {
			t.Fatalf("Accept returned %v after Close; a backoff must end at once", d)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Accept did not return after Close")
	}
}
