// Package fail exercises errkind's accepted shape: every exported struct
// error type names its own wire kind.
package fail

// StallError is a modeled failure; its kind method has a pointer receiver.
type StallError struct{}

func (e *StallError) Error() string { return "stall" }

// ErrKind returns the wire error kind.
func (e *StallError) ErrKind() string { return "stall" }

// DriftError is a host-level failure; its kind method has a value receiver.
type DriftError struct{}

func (e DriftError) Error() string { return "drift" }

// ErrKind returns the wire error kind.
func (e DriftError) ErrKind() string { return "drift" }

// PauseError is an alias, not a declaration of its own.
type PauseError = StallError

// CodeError is not a struct, so it is out of scope.
type CodeError int

func (e CodeError) Error() string { return "code" }

// scratchError is unexported, so it is out of scope.
type scratchError struct{}

func (e *scratchError) Error() string { return "scratch" }

// ResultError does not implement error, so it is out of scope.
type ResultError struct{ Kind string }
