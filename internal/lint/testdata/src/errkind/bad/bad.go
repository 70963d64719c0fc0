// Package fail exercises errkind: an exported error type that does not name
// its wire kind must be flagged at its declaration.
package fail

// StallError names its kind.
type StallError struct{}

func (e *StallError) Error() string { return "stall" }

// ErrKind returns the wire error kind.
func (e *StallError) ErrKind() string { return "stall" }

// DriftError forgot its kind.
type DriftError struct{}

func (e *DriftError) Error() string { return "drift" }

// SkewError has a kind method of the wrong shape.
type SkewError struct{}

func (e *SkewError) Error() string { return "skew" }

// ErrKind returns a code, not a wire kind string.
func (e *SkewError) ErrKind() int { return 1 }
