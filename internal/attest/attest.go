// Package attest simulates the remote attestation of Sec. 3: devices
// participate anonymously, so instead of authenticating users the server
// verifies that the *device* is genuine via a platform attestation
// mechanism (Android's SafetyNet in the paper). Here, genuine devices hold
// a per-device key derived from a platform master secret and mint HMAC
// tokens over a server-issued context; compromised devices hold a key the
// platform did not derive and fail verification, giving "some protection against data
// poisoning via compromised devices".
package attest

import (
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"time"
)

// TokenTTL bounds token freshness.
const TokenTTL = 10 * time.Minute

// deriveDeviceKey is the platform key-derivation: the attestation authority
// (and only it) can derive a device's key from the master secret.
func deriveDeviceKey(master []byte, deviceID string) []byte {
	mac := hmac.New(sha256.New, master)
	mac.Write([]byte("device-key:"))
	mac.Write([]byte(deviceID))
	return mac.Sum(nil)
}

// Device is the device-side attestation state.
type Device struct {
	id  string
	key []byte
}

// NewGenuineDevice returns a device holding the correctly derived key.
func NewGenuineDevice(master []byte, deviceID string) *Device {
	return &Device{id: deviceID, key: deriveDeviceKey(master, deviceID)}
}

// Mint produces a token binding the device id, population and timestamp.
// Token layout: 8-byte unix-nano timestamp || 32-byte HMAC.
func (d *Device) Mint(population string, now time.Time) []byte {
	var ts [8]byte
	binary.BigEndian.PutUint64(ts[:], uint64(now.UnixNano()))
	mac := hmac.New(sha256.New, d.key)
	mac.Write(ts[:])
	mac.Write([]byte(d.id))
	mac.Write([]byte(population))
	return append(ts[:], mac.Sum(nil)...)
}

// Verifier is the server-side check, holding the master secret.
type Verifier struct {
	master []byte
}

// NewVerifier returns a verifier for the given master secret.
func NewVerifier(master []byte) *Verifier {
	return &Verifier{master: append([]byte(nil), master...)}
}

// Verify checks a token minted by deviceID for population at a time within
// TokenTTL of now.
func (v *Verifier) Verify(deviceID, population string, token []byte, now time.Time) error {
	if len(token) != 8+sha256.Size {
		return fmt.Errorf("attest: malformed token (%d bytes)", len(token))
	}
	ts := time.Unix(0, int64(binary.BigEndian.Uint64(token[:8])))
	age := now.Sub(ts)
	if age < -TokenTTL || age > TokenTTL {
		return fmt.Errorf("attest: token timestamp %v outside freshness window", ts)
	}
	key := deriveDeviceKey(v.master, deviceID)
	mac := hmac.New(sha256.New, key)
	mac.Write(token[:8])
	mac.Write([]byte(deviceID))
	mac.Write([]byte(population))
	if !hmac.Equal(mac.Sum(nil), token[8:]) {
		return fmt.Errorf("attest: device %s failed attestation", deviceID)
	}
	return nil
}
