package series

import (
	"bufio"
	"fmt"
	"io"
	"os"
)

// Dataset is an in-memory collection of equal-length series. The position of
// a series in the dataset is its ID; non-materialized indexes store these IDs
// and fetch the raw series back from a RawFile (or the dataset itself).
type Dataset struct {
	Len    int // length of each series
	Values []Series
}

// NewDataset creates an empty dataset whose series all have length n.
func NewDataset(n int) *Dataset {
	return &Dataset{Len: n}
}

// Append adds a series to the dataset and returns its ID.
func (d *Dataset) Append(s Series) (int, error) {
	if len(s) != d.Len {
		return 0, fmt.Errorf("%w: dataset holds length %d, got %d", ErrLengthMismatch, d.Len, len(s))
	}
	d.Values = append(d.Values, s)
	return len(d.Values) - 1, nil
}

// Count returns the number of series in the dataset.
func (d *Dataset) Count() int { return len(d.Values) }

// Get returns the series with the given ID.
func (d *Dataset) Get(id int) (Series, error) {
	if id < 0 || id >= len(d.Values) {
		return nil, fmt.Errorf("series: dataset id %d out of range [0,%d)", id, len(d.Values))
	}
	return d.Values[id], nil
}

// WriteTo serializes the dataset: each series in ID order, fixed size.
// The stream carries no header; the reader must know Len and the count (or
// read to EOF).
func (d *Dataset) WriteTo(w io.Writer) (int64, error) {
	bw := bufio.NewWriter(w)
	var n int64
	for _, s := range d.Values {
		if err := s.Write(bw); err != nil {
			return n, err
		}
		n += int64(Size(d.Len))
	}
	return n, bw.Flush()
}

// ReadDataset reads series of length n from r until EOF.
func ReadDataset(r io.Reader, n int) (*Dataset, error) {
	d := NewDataset(n)
	br := bufio.NewReader(r)
	for {
		s, err := Read(br, n)
		if err == io.EOF {
			return d, nil
		}
		if err == io.ErrUnexpectedEOF {
			return nil, fmt.Errorf("series: truncated dataset: %w", err)
		}
		if err != nil {
			return nil, err
		}
		d.Values = append(d.Values, s)
	}
}

// SaveFile writes the dataset to path.
func (d *Dataset) SaveFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if _, err := d.WriteTo(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// LoadFile reads a dataset of series length n from path.
func LoadFile(path string, n int) (*Dataset, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadDataset(f, n)
}

// RawStore abstracts fetching the original series for an ID. Both *Dataset
// and the storage-layer raw file reader implement it; exact search uses it
// to verify candidates from non-materialized indexes.
type RawStore interface {
	Get(id int) (Series, error)
	Count() int
}

var _ RawStore = (*Dataset)(nil)
