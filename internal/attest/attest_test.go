package attest

import (
	"testing"
	"time"
)

var master = []byte("platform-master-secret-for-test")
var now = time.Date(2019, 3, 1, 12, 0, 0, 0, time.UTC)

func TestGenuineDeviceVerifies(t *testing.T) {
	d := NewGenuineDevice(master, "device-1")
	v := NewVerifier(master)
	tok := d.Mint("pop", now)
	if err := v.Verify("device-1", "pop", tok, now); err != nil {
		t.Fatal(err)
	}
}

func TestCompromisedDeviceFails(t *testing.T) {
	// A key the platform did not derive: well-formed tokens that fail.
	d := NewGenuineDevice([]byte("not the platform's secret"), "device-2")
	v := NewVerifier(master)
	tok := d.Mint("pop", now)
	if err := v.Verify("device-2", "pop", tok, now); err == nil {
		t.Fatal("compromised device must fail attestation")
	}
}

func TestTokenBoundToDevice(t *testing.T) {
	d := NewGenuineDevice(master, "device-1")
	v := NewVerifier(master)
	tok := d.Mint("pop", now)
	if err := v.Verify("device-other", "pop", tok, now); err == nil {
		t.Fatal("token replayed under another device id must fail")
	}
}

func TestTokenBoundToPopulation(t *testing.T) {
	d := NewGenuineDevice(master, "device-1")
	v := NewVerifier(master)
	tok := d.Mint("pop-a", now)
	if err := v.Verify("device-1", "pop-b", tok, now); err == nil {
		t.Fatal("token for another population must fail")
	}
}

func TestStaleTokenFails(t *testing.T) {
	d := NewGenuineDevice(master, "device-1")
	v := NewVerifier(master)
	tok := d.Mint("pop", now)
	if err := v.Verify("device-1", "pop", tok, now.Add(TokenTTL+time.Minute)); err == nil {
		t.Fatal("stale token must fail")
	}
	if err := v.Verify("device-1", "pop", tok, now.Add(-TokenTTL-time.Minute)); err == nil {
		t.Fatal("future-dated token must fail")
	}
}

func TestMalformedToken(t *testing.T) {
	v := NewVerifier(master)
	if err := v.Verify("d", "p", []byte("short"), now); err == nil {
		t.Fatal("malformed token must fail")
	}
}

func TestTamperedToken(t *testing.T) {
	d := NewGenuineDevice(master, "device-1")
	v := NewVerifier(master)
	tok := d.Mint("pop", now)
	tok[len(tok)-1] ^= 1
	if err := v.Verify("device-1", "pop", tok, now); err == nil {
		t.Fatal("tampered token must fail")
	}
}

func TestWrongMasterFails(t *testing.T) {
	d := NewGenuineDevice(master, "device-1")
	v := NewVerifier([]byte("different-master"))
	tok := d.Mint("pop", now)
	if err := v.Verify("device-1", "pop", tok, now); err == nil {
		t.Fatal("verifier with wrong master must reject")
	}
}
