package ctree

import "repro/internal/index"

// The envelope helpers the in-package tests call by their old names; the
// code is index's, shared with the sorted run.
var (
	widenEnv     = index.WidenEnvelope
	symbolsBelow = index.SymbolsBelow
)

// SetPageKeyBounds switches the reference-scan hook (pageKeyBounds) for the
// external equivalence tests, which reach trees through the facade, shards
// and stream partitions. Set it only while no search is in flight.
func SetPageKeyBounds(on bool) { pageKeyBounds = on }
