// The benchmark is a module of its own so that it builds from its own
// directory; the replace directive points at the repository root, and the
// module path keeps the "repro/" prefix so internal packages stay importable.
module repro/bench

go 1.21

require repro v0.0.0

replace repro => ../
