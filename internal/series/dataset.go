package series

import "fmt"

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

// RawStore abstracts fetching the original series for an ID. Both *Dataset
// and the storage-layer raw file reader implement it; exact search uses it
// to verify candidates from non-materialized indexes.
type RawStore interface {
	Get(id int) (Series, error)
	Count() int
}

var _ RawStore = (*Dataset)(nil)
