// Command demo is the fixture's one command.
package main

import (
	"fmt"

	"reachdemo/lib"
	"reachdemo/user"
)

func main() {
	fmt.Println(lib.Total([]lib.Shape{lib.Square{Side: 2}}), user.Run())
}
