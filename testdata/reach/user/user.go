// Package user calls lib through a renamed import: the rule that forbids
// it lib.Forbidden must see the call through the new name.
package user

import renamed "reachdemo/lib"

// Run is what the main package calls. Naming lib.Forbidden() in this
// comment, or in the one below, breaks no rule.
func Run() int {
	// lib.Forbidden()
	return renamed.Forbidden()
}
