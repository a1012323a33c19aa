// Command benchmark is the fixture's instrument: it alone calls
// lib.BenchOnly.
package main

import (
	"fmt"

	"reachdemo/lib"
)

func main() {
	fmt.Println(lib.BenchOnly())
}
