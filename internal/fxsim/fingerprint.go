package fxsim

import "ppep/internal/fingerprint"

// Fingerprint returns a content hash of the complete platform
// configuration — topology, power truth, NB parameters, gating/boost
// switches, and the sensor seed. Two Configs fingerprint equal iff every
// exported field (followed through the Power and NB pointers) is equal,
// so the simulation-trace cache can use it as the platform component of
// a cell's identity: any config change invalidates the cell.
func (c Config) Fingerprint() uint64 { return fingerprint.Of(c) }
