package record

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"

	"repro/internal/sortable"
)

// ErrPacked is why an index whose metadata says its pages are packed does
// not open: older builds could write that layout, and no index reads it
// now. Openers wrap it with the name of the file that says so.
var ErrPacked = errors.New("record: the packed page layout is no longer read; rebuild the index from its dataset")

// Packed pages are a compressed encoding of entry pages that older builds
// could write: instead of fixed 32-byte headers per entry, a page stores
// its entries column-wise with frame-of-reference bit packing. No index
// reads or writes them; what is left here is the codec alone — a page
// builder and a view of a page's key, ID and timestamp columns — which
// measurements of the packed layout against the fixed-size one still
// call. The encoding is lossless — keys, IDs, and timestamps reconstruct
// bit-for-bit — and materialized payloads are stored verbatim after the
// columns.
//
// Page layout (all integers little-endian unless noted):
//
//	 0  magic    u16  = 0x7C0C
//	 2  version  u8   = 1
//	 3  flags    u8   bit0: payloads present (materialized codec)
//	 4  count    u16
//	 6  keyW     u8   bits per packed key delta (0..128)
//	 7  keyShift u8   left shift applied to key deltas (0..127)
//	 8  idW      u8   bits per packed ID delta (0..64)
//	 9  tsW      u8   bits per packed TS delta (0..64)
//	10  reserved u16  = 0
//	12  firstKey 16B  (big-endian sortable encoding)
//	28  baseID   u64
//	36  baseTS   u64
//	44  key bitstream:  count x keyW bits, then zero padding to a byte
//	    ID bitstream:   count x idW bits, likewise padded
//	    TS bitstream:   count x tsW bits, likewise padded
//	    payloads:       count x 8 x SeriesLen bytes, verbatim
//
// Keys are stored as key_i = firstKey + (delta_i << keyShift): entries are
// sorted, so deltas from the first key are non-negative, and because sortable
// keys are left-aligned (only the top Segments x Bits bits are significant)
// every delta shares keyShift trailing zero bits, which the encoder strips.
// IDs and timestamps are frame-of-reference deltas from the page minimum.
// All three widths are chosen per page from the actual values, so the codec
// has no lossy mode and no tuning: a page of similar keys packs tightly, a
// pathological page simply packs at full width.
//
// Readers locate values in O(1) (value i occupies bits [i*W, (i+1)*W) of its
// stream). Bit reads use unaligned 8-byte loads; PackedSlack spare bytes at
// the page tail keep those loads in bounds.
const (
	packedMagic   = 0x7C0C
	packedVersion = 1

	// PackedHeaderBytes is the fixed per-page header size.
	PackedHeaderBytes = 44

	// PackedSlack is the spare space the encoder leaves at the page tail so
	// bitstream readers can use unaligned 8-byte loads without bounds
	// branches.
	PackedSlack = 8

	// maxPackedCount caps entries per packed page (count is stored u16; the
	// cap also bounds decode scratch growth on adversarial pages).
	maxPackedCount = 1 << 15

	flagMaterialized = 1 << 0
)

// packedFits reports whether a packed page of the codec's shape fits in
// pageSize at all (header, one worst-case entry, and the reader slack).
func packedFits(c Codec, pageSize int) bool {
	worst := PackedHeaderBytes + sortable.KeyBytes + 8 + 8 + PackedSlack
	if c.Materialized {
		worst += 8 * c.SeriesLen
	}
	return worst <= pageSize
}

// PageBuilder assembles one packed page at a time. Add entries in (Key, ID)
// order with TryAdd until it reports the page full, then Encode and
// continue with the rejected entry on the next page. Payload bytes are
// copied in at TryAdd time, so callers may reuse entry buffers immediately.
type PageBuilder struct {
	codec    Codec
	pageSize int
	paySize  int

	keys []sortable.Key
	ids  []int64
	tss  []int64
	pay  []byte

	orHi, orLo   uint64 // OR of key deltas from keys[0]
	minID, maxID int64
	minTS, maxTS int64
}

// NewPageBuilder returns a builder for packed pages of the given size. It
// errors when even a single worst-case entry cannot fit, so
// misconfiguration fails at construction instead of mid-write.
func NewPageBuilder(c Codec, pageSize int) (*PageBuilder, error) {
	if !packedFits(c, pageSize) {
		return nil, fmt.Errorf("record: packed entry of series length %d cannot fit page size %d", c.SeriesLen, pageSize)
	}
	return &PageBuilder{codec: c, pageSize: pageSize, paySize: c.Size() - HeaderBytes}, nil
}

type packedWidths struct {
	keyW, keyShift, idW, tsW uint8
}

// packedWidthsOf derives the per-column bit widths of a packed page from
// its statistics.
func packedWidthsOf(orHi, orLo uint64, minID, maxID, minTS, maxTS int64) packedWidths {
	var w packedWidths
	if n := bitLen128(orHi, orLo); n > 0 {
		shift := trailingZeros128(orHi, orLo)
		w.keyShift = uint8(shift)
		w.keyW = uint8(n - shift)
	}
	w.idW = uint8(bits.Len64(uint64(maxID) - uint64(minID)))
	w.tsW = uint8(bits.Len64(uint64(maxTS) - uint64(minTS)))
	return w
}

func (b *PageBuilder) sizeWith(count int, w packedWidths) int {
	return PackedHeaderBytes +
		(count*int(w.keyW)+7)/8 +
		(count*int(w.idW)+7)/8 +
		(count*int(w.tsW)+7)/8 +
		count*b.paySize
}

// TryAdd stages one entry. It returns false — leaving the builder unchanged
// — when the entry does not fit on the current page: one not in key order
// with the staged ones, or over the size budget. A false return on an
// empty builder cannot happen (NewPageBuilder verified the worst case
// fits).
func (b *PageBuilder) TryAdd(e Entry) (bool, error) {
	if b.codec.Materialized && len(e.Payload) != b.codec.SeriesLen {
		return false, fmt.Errorf("record: payload length %d, want %d", len(e.Payload), b.codec.SeriesLen)
	}
	if len(b.keys) >= maxPackedCount {
		return false, nil
	}
	orHi, orLo := b.orHi, b.orLo
	minID, maxID, minTS, maxTS := e.ID, e.ID, e.TS, e.TS
	if len(b.keys) > 0 {
		first := b.keys[0]
		if e.Key.Less(first) {
			return false, nil // out of key order: start a fresh page
		}
		dHi, dLo := sub128(e.Key.Hi, e.Key.Lo, first.Hi, first.Lo)
		orHi |= dHi
		orLo |= dLo
		minID, maxID = min(b.minID, e.ID), max(b.maxID, e.ID)
		minTS, maxTS = min(b.minTS, e.TS), max(b.maxTS, e.TS)
	}
	w := packedWidthsOf(orHi, orLo, minID, maxID, minTS, maxTS)
	if b.sizeWith(len(b.keys)+1, w)+PackedSlack > b.pageSize {
		if len(b.keys) == 0 {
			return false, fmt.Errorf("record: single packed entry exceeds page size %d", b.pageSize)
		}
		return false, nil
	}
	b.orHi, b.orLo = orHi, orLo
	b.minID, b.maxID, b.minTS, b.maxTS = minID, maxID, minTS, maxTS
	b.keys = append(b.keys, e.Key)
	b.ids = append(b.ids, e.ID)
	b.tss = append(b.tss, e.TS)
	if b.paySize > 0 {
		b.pay = e.Payload.AppendBinary(b.pay)
	}
	return true, nil
}

// Encode renders the staged entries into page (which must be at least
// pageSize long), zeroes the remainder, resets the builder, and returns the
// number of meaningful bytes. Encoding an empty builder is an error.
func (b *PageBuilder) Encode(page []byte) (int, error) {
	count := len(b.keys)
	if count == 0 {
		return 0, fmt.Errorf("record: encoding empty page")
	}
	if len(page) < b.pageSize {
		return 0, fmt.Errorf("record: page buffer %d short of page size %d", len(page), b.pageSize)
	}
	clear(page[:b.pageSize])
	defer b.reset()
	w := packedWidthsOf(b.orHi, b.orLo, b.minID, b.maxID, b.minTS, b.maxTS)
	used := b.sizeWith(count, w)
	binary.LittleEndian.PutUint16(page, packedMagic)
	page[2] = packedVersion
	if b.codec.Materialized {
		page[3] = flagMaterialized
	}
	binary.LittleEndian.PutUint16(page[4:], uint16(count))
	page[6] = w.keyW
	page[7] = w.keyShift
	page[8] = w.idW
	page[9] = w.tsW
	first := b.keys[0]
	first.AppendBinary(page[12:12:28])
	binary.LittleEndian.PutUint64(page[28:], uint64(b.minID))
	binary.LittleEndian.PutUint64(page[36:], uint64(b.minTS))

	keysOff := PackedHeaderBytes
	idsOff := keysOff + (count*int(w.keyW)+7)/8
	tsOff := idsOff + (count*int(w.idW)+7)/8
	payOff := tsOff + (count*int(w.tsW)+7)/8

	keyW, shift := uint(w.keyW), uint(w.keyShift)
	for i, k := range b.keys {
		dHi, dLo := sub128(k.Hi, k.Lo, first.Hi, first.Lo)
		dHi, dLo = shr128(dHi, dLo, shift)
		bitOff := i * int(keyW)
		if keyW <= 64 {
			putBits(page[keysOff:], bitOff, dLo, keyW)
		} else {
			putBits(page[keysOff:], bitOff, dLo, 64)
			putBits(page[keysOff:], bitOff+64, dHi, keyW-64)
		}
	}
	for i, id := range b.ids {
		putBits(page[idsOff:], i*int(w.idW), uint64(id)-uint64(b.minID), uint(w.idW))
	}
	for i, ts := range b.tss {
		putBits(page[tsOff:], i*int(w.tsW), uint64(ts)-uint64(b.minTS), uint(w.tsW))
	}
	copy(page[payOff:], b.pay)
	return used, nil
}

// reset discards the staged entries, once Encode has rendered them.
func (b *PageBuilder) reset() {
	b.keys = b.keys[:0]
	b.ids = b.ids[:0]
	b.tss = b.tss[:0]
	b.pay = b.pay[:0]
	b.orHi, b.orLo = 0, 0
}

// PackedView is a decoded packed-page header with O(1) column accessors. It
// is a value type — constructing one allocates nothing — and aliases the
// page bytes, so it is valid only while they are.
type PackedView struct {
	page    []byte
	count   int
	keyW    uint
	shift   uint
	idW     uint
	tsW     uint
	firstHi uint64
	firstLo uint64
	baseID  int64
	baseTS  int64
	keysOff int
	idsOff  int
	tsOff   int
}

// ViewPacked validates and opens a packed page under the codec. The page
// slice must be a full storage page (the encoder's tail slack is what keeps
// bitstream reads in bounds).
func (c Codec) ViewPacked(page []byte) (PackedView, error) {
	if len(page) < PackedHeaderBytes {
		return PackedView{}, fmt.Errorf("record: packed page too short: %d", len(page))
	}
	if binary.LittleEndian.Uint16(page) != packedMagic {
		return PackedView{}, fmt.Errorf("record: bad packed page magic %#04x", binary.LittleEndian.Uint16(page))
	}
	if page[2] != packedVersion {
		return PackedView{}, fmt.Errorf("record: unsupported packed page version %d", page[2])
	}
	mat := page[3]&flagMaterialized != 0
	if mat != c.Materialized {
		return PackedView{}, fmt.Errorf("record: packed page materialized=%v, codec says %v", mat, c.Materialized)
	}
	v := PackedView{
		page:   page,
		count:  int(binary.LittleEndian.Uint16(page[4:])),
		keyW:   uint(page[6]),
		shift:  uint(page[7]),
		idW:    uint(page[8]),
		tsW:    uint(page[9]),
		baseID: int64(binary.LittleEndian.Uint64(page[28:])),
		baseTS: int64(binary.LittleEndian.Uint64(page[36:])),
	}
	first := sortable.DecodeKey(page[12:])
	v.firstHi, v.firstLo = first.Hi, first.Lo
	if v.keyW > 128 || v.shift > 127 || v.idW > 64 || v.tsW > 64 {
		return PackedView{}, fmt.Errorf("record: packed page widths out of range")
	}
	v.keysOff = PackedHeaderBytes
	v.idsOff = v.keysOff + (v.count*int(v.keyW)+7)/8
	v.tsOff = v.idsOff + (v.count*int(v.idW)+7)/8
	used := v.tsOff + (v.count*int(v.tsW)+7)/8
	if mat {
		used += v.count * 8 * c.SeriesLen
	}
	if used+PackedSlack > len(page) {
		return PackedView{}, fmt.Errorf("record: packed page overruns: %d bytes used of %d", used, len(page))
	}
	return v, nil
}

// Count returns the number of entries on the page.
func (v *PackedView) Count() int { return v.count }

// Key returns entry i's sortable key.
func (v *PackedView) Key(i int) sortable.Key {
	var dHi, dLo uint64
	bitOff := i * int(v.keyW)
	if v.keyW <= 64 {
		dLo = getBits(v.page[v.keysOff:], bitOff, v.keyW)
	} else {
		dLo = getBits(v.page[v.keysOff:], bitOff, 64)
		dHi = getBits(v.page[v.keysOff:], bitOff+64, v.keyW-64)
	}
	dHi, dLo = shl128(dHi, dLo, v.shift)
	lo, carry := bits.Add64(v.firstLo, dLo, 0)
	hi, _ := bits.Add64(v.firstHi, dHi, carry)
	return sortable.Key{Hi: hi, Lo: lo}
}

// ID returns entry i's series ID.
func (v *PackedView) ID(i int) int64 {
	return int64(uint64(v.baseID) + getBits(v.page[v.idsOff:], i*int(v.idW), v.idW))
}

// TS returns entry i's ingestion timestamp.
func (v *PackedView) TS(i int) int64 {
	return int64(uint64(v.baseTS) + getBits(v.page[v.tsOff:], i*int(v.tsW), v.tsW))
}

// putBits writes the low w bits of val at bit offset bitOff of b (w <= 64).
// Bits beyond w in val must be zero is not required — they are masked.
func putBits(b []byte, bitOff int, val uint64, w uint) {
	for w > 0 {
		byteOff := bitOff >> 3
		sh := uint(bitOff & 7)
		n := 8 - sh
		if n > w {
			n = w
		}
		mask := byte((1<<n - 1) << sh)
		b[byteOff] = b[byteOff]&^mask | byte(val<<sh)&mask
		val >>= n
		bitOff += int(n)
		w -= n
	}
}

// getBits reads w bits at bit offset bitOff of b (w <= 64) with one
// unaligned 8-byte load (plus one byte when the value straddles 9 bytes).
// Callers guarantee 8 readable bytes past the value's first byte — the
// encoder's tail slack.
func getBits(b []byte, bitOff int, w uint) uint64 {
	if w == 0 {
		return 0
	}
	byteOff := bitOff >> 3
	sh := uint(bitOff & 7)
	v := binary.LittleEndian.Uint64(b[byteOff:]) >> sh
	if sh+w > 64 {
		v |= uint64(b[byteOff+8]) << (64 - sh)
	}
	if w == 64 {
		return v
	}
	return v & (1<<w - 1)
}

func sub128(aHi, aLo, bHi, bLo uint64) (hi, lo uint64) {
	lo, borrow := bits.Sub64(aLo, bLo, 0)
	hi, _ = bits.Sub64(aHi, bHi, borrow)
	return hi, lo
}

func shr128(hi, lo uint64, n uint) (uint64, uint64) {
	switch {
	case n == 0:
		return hi, lo
	case n < 64:
		return hi >> n, lo>>n | hi<<(64-n)
	case n < 128:
		return 0, hi >> (n - 64)
	default:
		return 0, 0
	}
}

func shl128(hi, lo uint64, n uint) (uint64, uint64) {
	switch {
	case n == 0:
		return hi, lo
	case n < 64:
		return hi<<n | lo>>(64-n), lo << n
	case n < 128:
		return lo << (n - 64), 0
	default:
		return 0, 0
	}
}

func bitLen128(hi, lo uint64) int {
	if hi != 0 {
		return 64 + bits.Len64(hi)
	}
	return bits.Len64(lo)
}

func trailingZeros128(hi, lo uint64) int {
	if lo != 0 {
		return bits.TrailingZeros64(lo)
	}
	if hi != 0 {
		return 64 + bits.TrailingZeros64(hi)
	}
	return 0
}
