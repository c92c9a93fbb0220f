package index

// RaceEnabled lets the external test package skip its allocation-count
// assertion under the race detector, like the internal ones.
const RaceEnabled = raceEnabled
