package secagg

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"io"
	"sync"

	"repro/internal/field"
)

// 32-byte secrets (X25519 private keys, PRG seeds) are shared through the
// 61-bit field by chunking into 48-bit pieces: 6 chunks cover 288 ≥ 256 bits.
const (
	secretChunks  = 6
	chunkBits     = 48
	chunkBytes    = chunkBits / 8
	secretByteLen = 32
)

// chunkedShare is one participant's share of a 32-byte secret.
type chunkedShare struct {
	X  uint64
	Ys [secretChunks]uint64
}

// splitBytes Shamir-shares a 32-byte secret among len(dst) holders, dst[i]
// at evaluation point i+1, any t of them reconstructing it. ys (len(dst)
// elements) and coef (8(t−1) bytes) are the caller's scratch.
func splitBytes(dst []chunkedShare, secret []byte, t int, ys []uint64, coef []byte) error {
	if len(secret) != secretByteLen {
		return fmt.Errorf("secagg: secret must be %d bytes, got %d", secretByteLen, len(secret))
	}
	var padded [secretChunks * chunkBytes]byte
	copy(padded[:], secret)
	for c := range secretChunks {
		chunk := uint64(0)
		for _, b := range padded[c*chunkBytes : (c+1)*chunkBytes] {
			chunk = chunk<<8 | uint64(b)
		}
		if err := field.Split(ys, chunk, t, coef, nil); err != nil {
			return err
		}
		for i, y := range ys {
			dst[i].X, dst[i].Ys[c] = uint64(i+1), y
		}
	}
	return nil
}

// reconstructBytes inverts splitBytes from the t shares given, through the
// caller's scratch of 2t elements.
func reconstructBytes(shares []chunkedShare, scratch []uint64) (secret [secretByteLen]byte, err error) {
	t := len(shares)
	xs, ys := scratch[:t], scratch[t:2*t]
	for i, s := range shares {
		xs[i] = s.X
	}
	var padded [secretChunks * chunkBytes]byte
	for c := range secretChunks {
		for i, s := range shares {
			ys[i] = s.Ys[c]
		}
		chunk, err := field.Reconstruct(xs, ys, t)
		if err != nil {
			return secret, err
		}
		for b := chunkBytes - 1; b >= 0; b-- {
			padded[c*chunkBytes+b] = byte(chunk)
			chunk >>= 8
		}
	}
	return [secretByteLen]byte(padded[:]), nil
}

// shareBundle is what device owner sends to device holder in Round 1: the
// holder's shares of the owner's mask seed b and masking secret key, plus
// the blinders that open the owner's broadcast commitments to those
// shares. The blinders ride inside the AES-GCM envelope: only the holder
// can open the commitment, so the broadcast stays hiding, yet the holder
// (and, at unmask time, the server) can verify exactly what it reveals.
type shareBundle struct {
	Owner   int
	Holder  int
	BShare  chunkedShare
	SKShare chunkedShare
	BBlind  [field.BlinderLen]byte
	SKBlind [field.BlinderLen]byte
}

// bundleWireLen is a bundle's plaintext; sealedLen is the bundle sealed
// under AES-GCM, its standard 12-byte nonce ahead and 16-byte tag behind.
const (
	bundleWireLen = 8 + 8 + 2*(8+secretChunks*8) + 2*field.BlinderLen
	sealedLen     = 12 + bundleWireLen + 16
)

// marshal appends the bundle's bundleWireLen wire bytes to buf.
func (b *shareBundle) marshal(buf []byte) []byte {
	buf = binary.BigEndian.AppendUint64(buf, uint64(b.Owner))
	buf = binary.BigEndian.AppendUint64(buf, uint64(b.Holder))
	for _, cs := range [...]*chunkedShare{&b.BShare, &b.SKShare} {
		buf = binary.BigEndian.AppendUint64(buf, cs.X)
		for _, y := range cs.Ys {
			buf = binary.BigEndian.AppendUint64(buf, y)
		}
	}
	buf = append(buf, b.BBlind[:]...)
	return append(buf, b.SKBlind[:]...)
}

// unmarshalBundle decodes buf into b.
func unmarshalBundle(buf []byte, b *shareBundle) error {
	if len(buf) != bundleWireLen {
		return fmt.Errorf("secagg: bundle length %d, want %d", len(buf), bundleWireLen)
	}
	b.Owner = int(binary.BigEndian.Uint64(buf))
	b.Holder = int(binary.BigEndian.Uint64(buf[8:]))
	off := 16
	for _, cs := range [...]*chunkedShare{&b.BShare, &b.SKShare} {
		cs.X = binary.BigEndian.Uint64(buf[off:])
		off += 8
		for i := range cs.Ys {
			cs.Ys[i] = binary.BigEndian.Uint64(buf[off:])
			off += 8
		}
	}
	b.BBlind = [field.BlinderLen]byte(buf[off:])
	b.SKBlind = [field.BlinderLen]byte(buf[off+field.BlinderLen:])
	return nil
}

// sealScratch is where a client's Round-1 bundles are sealed: the routed
// shares and the ciphertexts they point into. It is pooled and goes back
// wiped, like maskScratch, and only ever holds ciphertext.
type sealScratch struct {
	out    []RoutedShare
	sealed []byte
}

var sealPool = sync.Pool{New: func() any { return new(sealScratch) }}

// release gives the bundles ShareKeys sealed back to the pool, wiped: the
// server has routed them and their holders have opened them.
func (c *Client) release() {
	if b := c.bundles; b != nil {
		clear(b.out[:cap(b.out)])
		clear(b.sealed[:cap(b.sealed)])
		sealPool.Put(b)
		c.bundles = nil
	}
}

// bundleAEAD builds the AES-GCM instance a pair of devices seals and opens
// each other's bundles with, keyed from their ECDH shared secret. A client
// builds it once per peer (peer.gcm).
func bundleAEAD(shared []byte) (cipher.AEAD, error) {
	var pre [7 + secretByteLen]byte
	key := sha256.Sum256(append(append(pre[:0], "saggenc"...), shared...))
	block, err := aes.NewCipher(key[:])
	if err != nil {
		return nil, err
	}
	return cipher.NewGCM(block)
}

// sealBundle seals a bundle into ct, sealedLen bytes, under the pair's AEAD
// with a fresh random nonce: nonce ‖ ciphertext ‖ tag, marshaled and sealed
// in place.
func sealBundle(ct []byte, gcm cipher.AEAD, b *shareBundle) error {
	nonce := ct[:gcm.NonceSize()]
	if _, err := io.ReadFull(rand.Reader, nonce); err != nil {
		return err
	}
	pt := b.marshal(ct[len(nonce):len(nonce)]) // where its ciphertext goes
	gcm.Seal(pt[:0], nonce, pt, nil)
	return nil
}

// openBundle opens a sealed bundle into b, using pt's storage for the
// plaintext.
func openBundle(gcm cipher.AEAD, ct, pt []byte, b *shareBundle) error {
	ns := gcm.NonceSize()
	if len(ct) < ns {
		return fmt.Errorf("secagg: ciphertext too short")
	}
	pt, err := gcm.Open(pt[:0], ct[:ns], ct[ns:], nil)
	if err != nil {
		return fmt.Errorf("secagg: decrypt: %w", err)
	}
	return unmarshalBundle(pt, b)
}
