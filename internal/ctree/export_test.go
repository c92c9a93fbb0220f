package ctree

// SetPageKeyBounds switches the reference-scan hook (pageKeyBounds) for the
// external equivalence tests, which reach trees through the facade, shards
// and stream partitions. Set it only while no search is in flight.
func SetPageKeyBounds(on bool) { pageKeyBounds = on }
