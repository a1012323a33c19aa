//go:build demo_cap

// This file is built only with the demo_cap tag, so only the gate's read
// of build lines sees it.
package user

// Capped is what the tagged build adds.
func Capped() int { return 1 }
