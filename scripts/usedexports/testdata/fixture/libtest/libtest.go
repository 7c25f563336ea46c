// Package libtest is test support: its uses are test uses, and its own
// exports are not audited.
package libtest

import "fix/lib"

// Helper is exported and called by nobody.
func Helper() int { return lib.SupportOnly() }
