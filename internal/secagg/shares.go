package secagg

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"io"

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

// splitBytes Shamir-shares a 32-byte secret into n chunked shares with
// threshold t.
func splitBytes(secret []byte, n, t int, rng io.Reader) ([]chunkedShare, error) {
	if len(secret) != secretByteLen {
		return nil, fmt.Errorf("secagg: secret must be %d bytes, got %d", secretByteLen, len(secret))
	}
	padded := make([]byte, secretChunks*chunkBytes)
	copy(padded, secret)
	out := make([]chunkedShare, n)
	for c := 0; c < secretChunks; c++ {
		chunk := uint64(0)
		for b := 0; b < chunkBytes; b++ {
			chunk = chunk<<8 | uint64(padded[c*chunkBytes+b])
		}
		shares, err := field.Split(chunk, n, t, rng)
		if err != nil {
			return nil, err
		}
		for i := range out {
			out[i].X = shares[i].X
			out[i].Ys[c] = shares[i].Y
		}
	}
	return out, nil
}

// reconstructBytes inverts splitBytes given at least t shares.
func reconstructBytes(shares []chunkedShare, t int) ([]byte, error) {
	if len(shares) < t {
		return nil, fmt.Errorf("secagg: need %d shares, have %d", t, len(shares))
	}
	padded := make([]byte, secretChunks*chunkBytes)
	fs := make([]field.Share, len(shares))
	for c := 0; c < secretChunks; c++ {
		for i, s := range shares {
			fs[i] = field.Share{X: s.X, Y: s.Ys[c]}
		}
		chunk, err := field.Reconstruct(fs, t)
		if err != nil {
			return nil, err
		}
		for b := chunkBytes - 1; b >= 0; b-- {
			padded[c*chunkBytes+b] = byte(chunk)
			chunk >>= 8
		}
	}
	return padded[:secretByteLen], nil
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
	BBlind  []byte
	SKBlind []byte
}

const bundleWireLen = 8 + 8 + 2*(8+secretChunks*8) + 2*field.BlinderLen

// marshal appends the bundle's bundleWireLen wire bytes to buf.
func (b *shareBundle) marshal(buf []byte) []byte {
	buf = binary.BigEndian.AppendUint64(buf, uint64(b.Owner))
	buf = binary.BigEndian.AppendUint64(buf, uint64(b.Holder))
	for _, cs := range []chunkedShare{b.BShare, b.SKShare} {
		buf = binary.BigEndian.AppendUint64(buf, cs.X)
		for _, y := range cs.Ys {
			buf = binary.BigEndian.AppendUint64(buf, y)
		}
	}
	for _, bl := range [][]byte{b.BBlind, b.SKBlind} {
		var fixed [field.BlinderLen]byte
		copy(fixed[:], bl)
		buf = append(buf, fixed[:]...)
	}
	return buf
}

func unmarshalBundle(buf []byte) (*shareBundle, error) {
	if len(buf) != bundleWireLen {
		return nil, fmt.Errorf("secagg: bundle length %d, want %d", len(buf), bundleWireLen)
	}
	b := &shareBundle{
		Owner:  int(binary.BigEndian.Uint64(buf)),
		Holder: int(binary.BigEndian.Uint64(buf[8:])),
	}
	off := 16
	for _, cs := range []*chunkedShare{&b.BShare, &b.SKShare} {
		cs.X = binary.BigEndian.Uint64(buf[off:])
		off += 8
		for i := range cs.Ys {
			cs.Ys[i] = binary.BigEndian.Uint64(buf[off:])
			off += 8
		}
	}
	b.BBlind = append([]byte(nil), buf[off:off+field.BlinderLen]...)
	off += field.BlinderLen
	b.SKBlind = append([]byte(nil), buf[off:off+field.BlinderLen]...)
	return b, nil
}

// bundleAEAD builds the AES-GCM instance a pair of devices seals and opens
// each other's bundles with, keyed from their ECDH shared secret. A client
// builds it once per peer (Client.cShared).
func bundleAEAD(shared []byte) (cipher.AEAD, error) {
	key := sha256.Sum256(append([]byte("saggenc"), shared...))
	block, err := aes.NewCipher(key[:])
	if err != nil {
		return nil, err
	}
	return cipher.NewGCM(block)
}

// encryptBundle seals a bundle under the pair's AEAD with a fresh random
// nonce: nonce ‖ ciphertext ‖ tag, marshaled and sealed in place in the one
// buffer it returns.
func encryptBundle(gcm cipher.AEAD, b *shareBundle) ([]byte, error) {
	ns := gcm.NonceSize()
	ct := make([]byte, ns, ns+bundleWireLen+gcm.Overhead())
	if _, err := io.ReadFull(rand.Reader, ct); err != nil {
		return nil, err
	}
	pt := b.marshal(ct[ns:]) // behind the nonce, where its ciphertext goes
	return append(ct, gcm.Seal(pt[:0], ct, pt, nil)...), nil
}

// decryptBundle opens a sealed bundle, using pt's storage for the plaintext
// (nothing of pt survives in the returned bundle).
func decryptBundle(gcm cipher.AEAD, ct, pt []byte) (*shareBundle, error) {
	ns := gcm.NonceSize()
	if len(ct) < ns {
		return nil, fmt.Errorf("secagg: ciphertext too short")
	}
	pt, err := gcm.Open(pt[:0], ct[:ns], ct[ns:], nil)
	if err != nil {
		return nil, fmt.Errorf("secagg: decrypt: %w", err)
	}
	return unmarshalBundle(pt)
}
