// Package myrinet models the Myrinet fabric: point-to-point links at
// 1.28 Gb/s per direction, 8-port cut-through crossbar switches, source
// routing with per-hop header stripping, hardware CRC-8 generation and
// checking, and in-order delivery (§3 of the paper).
package myrinet

// CRC-8 with the ATM HEC polynomial x^8+x^2+x+1 (0x07), the generator used
// by Myrinet's link-level packet check. Table-driven, computed over the
// packet payload (header + data) at injection and verified at the sink.
var crcTable [256]byte

// crcSlice holds the slicing-by-8 tables derived from crcTable.
// crcSlice[k][x] is the register after feeding byte x followed by k zero
// bytes into a zero register, i.e. crcTable applied k+1 times. The CRC is
// linear over GF(2), so eight bytes b0..b7 entering register c leave
//
//	crcSlice[7][c^b0] ^ crcSlice[6][b1] ^ ... ^ crcSlice[0][b7]
//
// which is what the bytewise loop computes one table lookup at a time.
var crcSlice [8][256]byte

func init() {
	const poly = 0x07
	for i := 0; i < 256; i++ {
		c := byte(i)
		for b := 0; b < 8; b++ {
			if c&0x80 != 0 {
				c = c<<1 ^ poly
			} else {
				c <<= 1
			}
		}
		crcTable[i] = c
	}
	crcSlice[0] = crcTable
	for k := 1; k < 8; k++ {
		for i := range crcSlice[k] {
			crcSlice[k][i] = crcTable[crcSlice[k-1][i]]
		}
	}
}

// CRC8 returns the CRC-8 of data. It consumes eight bytes per step with
// the slicing tables and finishes the tail bytewise.
func CRC8(data []byte) byte {
	var c byte
	for len(data) >= 8 {
		_ = data[7]
		c = crcSlice[7][c^data[0]] ^ crcSlice[6][data[1]] ^
			crcSlice[5][data[2]] ^ crcSlice[4][data[3]] ^
			crcSlice[3][data[4]] ^ crcSlice[2][data[5]] ^
			crcSlice[1][data[6]] ^ crcSlice[0][data[7]]
		data = data[8:]
	}
	for _, b := range data {
		c = crcTable[c^b]
	}
	return c
}
