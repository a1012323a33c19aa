// Command demo is the fixture's one root.
package main

import (
	"fmt"

	"reachdemo/lib"
)

func main() {
	fmt.Println(lib.Total([]lib.Shape{lib.Square{Side: 2}}))
}
