package myrinet

import (
	"math/rand"
	"testing"
)

// crc8Bytewise is the reference: one crcTable lookup per byte.
func crc8Bytewise(data []byte) byte {
	var c byte
	for _, b := range data {
		c = crcTable[c^b]
	}
	return c
}

// TestCRC8MatchesBytewise checks the slicing-by-8 CRC8 against the
// bytewise loop on every length 0-64 (each tail length under each block
// count) and on random lengths up to 4 KB, at unaligned offsets.
func TestCRC8MatchesBytewise(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	buf := make([]byte, 4096+8)
	r.Read(buf)
	for n := 0; n <= 64; n++ {
		for off := 0; off < 8; off++ {
			data := buf[off : off+n]
			if got, want := CRC8(data), crc8Bytewise(data); got != want {
				t.Fatalf("len %d off %d: CRC8 = %#x, bytewise %#x", n, off, got, want)
			}
		}
	}
	for i := 0; i < 500; i++ {
		n, off := r.Intn(4097), r.Intn(8)
		data := buf[off : off+n]
		if got, want := CRC8(data), crc8Bytewise(data); got != want {
			t.Fatalf("len %d off %d: CRC8 = %#x, bytewise %#x", n, off, got, want)
		}
	}
}

func BenchmarkCRC8(b *testing.B) {
	data := make([]byte, 1024)
	rand.New(rand.NewSource(1)).Read(data)
	b.SetBytes(int64(len(data)))
	for i := 0; i < b.N; i++ {
		crcSink ^= CRC8(data)
	}
}

var crcSink byte
