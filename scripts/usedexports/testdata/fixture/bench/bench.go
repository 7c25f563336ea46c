// Package bench is a second module that calls into the first.
package bench

import "fix/lib"

// Run calls lib.BenchOnly.
func Run() int { return lib.BenchOnly() }
