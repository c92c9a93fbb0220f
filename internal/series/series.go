// Package series provides the fundamental data series type used throughout
// the Coconut infrastructure: fixed-length sequences of float64 points,
// z-normalization, Euclidean distance, and binary (de)serialization for the
// raw data file that non-materialized indexes point into.
package series

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"

	"repro/internal/simd"
)

// Series is a single data series: an ordered sequence of real values.
// All series in one dataset share the same length.
type Series []float64

// Errors returned by series operations.
var (
	ErrLengthMismatch = errors.New("series: length mismatch")
	ErrEmpty          = errors.New("series: empty series")
)

// Clone returns a deep copy of s.
func (s Series) Clone() Series {
	out := make(Series, len(s))
	copy(out, s)
	return out
}

// Mean returns the arithmetic mean of the series values.
func (s Series) Mean() float64 {
	if len(s) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range s {
		sum += v
	}
	return sum / float64(len(s))
}

// Std returns the population standard deviation of the series values.
func (s Series) Std() float64 {
	if len(s) == 0 {
		return 0
	}
	mean := s.Mean()
	acc := 0.0
	for _, v := range s {
		d := v - mean
		acc += d * d
	}
	return math.Sqrt(acc / float64(len(s)))
}

// ZNormalize returns a z-normalized copy of s: zero mean, unit variance.
// Constant series (zero variance) normalize to all zeros, matching the
// convention used by iSAX implementations.
func (s Series) ZNormalize() Series {
	return s.ZNormalizeInto(make(Series, len(s)))
}

// ZNormalizeInto z-normalizes s into dst (which must have len(s) elements)
// and returns dst. It is the allocation-free variant of ZNormalize used by
// the query hot path's reusable scratch buffers.
func (s Series) ZNormalizeInto(dst Series) Series {
	if len(dst) != len(s) {
		panic(fmt.Sprintf("series: ZNormalizeInto length mismatch %d vs %d", len(dst), len(s)))
	}
	mean := s.Mean()
	std := s.Std()
	if std < 1e-12 {
		for i := range dst {
			dst[i] = 0
		}
		return dst
	}
	for i, v := range s {
		dst[i] = (v - mean) / std
	}
	return dst
}

// Dist returns the Euclidean distance between s and t.
func (s Series) Dist(t Series) (float64, error) {
	if len(s) != len(t) {
		return 0, fmt.Errorf("%w: %d vs %d", ErrLengthMismatch, len(s), len(t))
	}
	return math.Sqrt(s.sqDist(t, math.Inf(1))), nil
}

// SqDist returns the squared Euclidean distance between s and t.
// It panics if the lengths differ; use Dist for a checked variant.
func (s Series) SqDist(t Series) float64 {
	if len(s) != len(t) {
		panic(fmt.Sprintf("series: SqDist length mismatch %d vs %d", len(s), len(t)))
	}
	return s.sqDist(t, math.Inf(1))
}

// SqDistEarlyAbandon computes the squared Euclidean distance but abandons
// the computation (returning a value >= limit) as soon as the running sum
// exceeds limit. This is the standard early-abandoning optimization used by
// data series indexes during exact search.
func (s Series) SqDistEarlyAbandon(t Series, limit float64) float64 {
	if len(s) != len(t) {
		panic(fmt.Sprintf("series: SqDistEarlyAbandon length mismatch %d vs %d", len(s), len(t)))
	}
	return s.sqDist(t, limit)
}

// sqDist delegates to the simd kernel layer: blocked accumulation with one
// abandon check per 8-point block, identical bits on every kernel set (see
// package simd). Abandoning is therefore per block, not per point — the
// returned value still exceeds limit whenever the full distance would.
func (s Series) sqDist(t Series, limit float64) float64 {
	return simd.SqDist(s, t, limit)
}

// SqDistEncodedEarlyAbandon computes the early-abandoning squared Euclidean
// distance between s and a series stored in its AppendBinary encoding,
// decoding points on the fly. This fuses payload decoding with distance
// accumulation so verifying a materialized candidate straight out of a page
// buffer costs no allocation and abandons as soon as a block's partial sum
// exceeds limit. buf must hold at least Size(len(s)) bytes. It shares the
// kernel entry point with sqDist, so the decoded and encoded paths cannot
// drift: both return bit-identical values on every kernel set.
func (s Series) SqDistEncodedEarlyAbandon(buf []byte, limit float64) float64 {
	if len(buf) < Size(len(s)) {
		panic(fmt.Sprintf("series: SqDistEncodedEarlyAbandon short buffer %d for %d points", len(buf), len(s)))
	}
	return simd.SqDistEncoded(s, buf, limit)
}

// Size is the serialized size in bytes of a series of length n.
func Size(n int) int { return 8 * n }

// AppendBinary appends the little-endian IEEE-754 encoding of s to buf,
// growing it once, so that no point's append reallocates. (Writing each
// point in place with PutUint64 instead measured twice as slow as this
// append where buf already has room, as it has on every hot path: some
// 80 ns against 35 for a 64-point series, on a 2-vCPU Xeon under Go 1.24.)
func (s Series) AppendBinary(buf []byte) []byte {
	buf = slices.Grow(buf, Size(len(s)))
	for _, v := range s {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
	}
	return buf
}

// DecodeBinary decodes a series of length n from buf, which must hold at
// least Size(n) bytes.
func DecodeBinary(buf []byte, n int) (Series, error) {
	if len(buf) < Size(n) {
		return nil, fmt.Errorf("series: short buffer: have %d want %d", len(buf), Size(n))
	}
	return DecodeBinaryInto(buf, make(Series, n))
}

// DecodeBinaryInto decodes len(dst) points from buf into dst, the
// allocation-free variant of DecodeBinary used with reusable scratch
// buffers. buf must hold at least Size(len(dst)) bytes.
func DecodeBinaryInto(buf []byte, dst Series) (Series, error) {
	if len(buf) < Size(len(dst)) {
		return nil, fmt.Errorf("series: short buffer: have %d want %d", len(buf), Size(len(dst)))
	}
	simd.Decode(buf, dst)
	return dst, nil
}
