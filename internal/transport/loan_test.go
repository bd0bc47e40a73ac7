package transport

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/protocol"
)

// loansOut is the fl_net_buf_loans gauge: loans and leases not returned.
func loansOut() float64 { return obsLoans.Value() }

// mustPanic runs fn and fails unless it panics with a message containing
// want.
func mustPanic(t *testing.T, want string, fn func()) {
	t.Helper()
	defer func() {
		if r := recover(); r == nil || !strings.Contains(r.(string), want) {
			t.Fatalf("recovered %v, want a panic about %q", r, want)
		}
	}()
	fn()
}

// TestLoanAcquireAfterLastReleasePanics: once the last reference is gone the
// buffer may serve another frame, so a late Acquire — or one Release too
// many — is a panic, never a silent read of someone else's bytes.
func TestLoanAcquireAfterLastReleasePanics(t *testing.T) {
	l := NewLoan(leaseSize)
	l.Acquire()
	l.Release()
	l.Release()
	mustPanic(t, "Acquire of a loan already returned", l.Acquire)
	mustPanic(t, "Release of a loan already returned", func() { l := NewLoan(leaseSize); l.Release(); l.Release() })
	var none *Loan
	none.Acquire()
	none.Release()
}

// TestLoanComesBackAtItsLastRelease: a pooled loan keeps its bytes while any
// reference is held and goes back, poisoned, at the last Release; a loan
// above the pools' range is a plain buffer no pool takes back.
func TestLoanComesBackAtItsLastRelease(t *testing.T) {
	poison(t)
	before := loansOut()
	for _, n := range []int{100, leaseSize, exactAlloc} {
		l := NewLoan(n)
		b := l.Bytes()
		if len(b) != n || cap(b) != rxClassSize(rxClass(n)) {
			t.Fatalf("NewLoan(%d): %d bytes in a buffer of %d", n, len(b), cap(b))
		}
		copy(b, patterned(n, 12))
		l.Acquire()
		l.Release()
		if !bytes.Equal(b, patterned(n, 12)) {
			t.Fatalf("NewLoan(%d): bytes changed while a reference was held", n)
		}
		l.Release()
		if b[0] != 0xDB || b[n-1] != 0xDB {
			t.Fatalf("NewLoan(%d): the last Release did not return the buffer", n)
		}
	}
	huge := NewLoan(exactAlloc + 1)
	b := huge.Bytes()
	b[0] = 1
	huge.Release()
	if b[0] != 1 {
		t.Fatal("a loan above the pools' range went back to a pool")
	}
	if got := loansOut() - before; got != 0 {
		t.Fatalf("%v loans out after every Release, want 0", got)
	}
}

// TestLoanSends: a TCP Send holds its own reference while it writes — a send
// of a returned loan panics — and a send over MemNetwork forfeits the loan,
// since the receiver keeps the very bytes: after the sender's last Release
// they are still the sender's, not the pool's.
func TestLoanSends(t *testing.T) {
	poison(t)
	t.Run("tcp", func(t *testing.T) {
		client, server := tcpPair(t)
		l := NewLoan(leaseSize)
		copy(l.Bytes(), patterned(leaseSize, 13))
		frame := Lend(leaseReport(l.Bytes()), l)
		sendAsync(t, client, frame)
		if got := recvLarge(t, server); !bytes.Equal(got, patterned(leaseSize, 13)) {
			t.Fatal("a loaned frame arrived damaged")
		}
		l.Release()
		mustPanic(t, "Acquire of a loan already returned", func() { _ = client.Send(frame) })
	})
	t.Run("mem", func(t *testing.T) {
		a, b := Pipe()
		l := NewLoan(leaseSize)
		copy(l.Bytes(), patterned(leaseSize, 14))
		if err := a.Send(Lend(leaseReport(l.Bytes()), l)); err != nil {
			t.Fatal(err)
		}
		l.Release()
		msg, err := b.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(msg.(protocol.ReportRequest).Update, patterned(leaseSize, 14)) {
			t.Fatal("a forfeit loan went back to the pool under its receiver")
		}
	})
}
