package main

import (
	"fmt"

	"fix/lib"
)

type tally struct{ Count int }

func main() {
	t := tally{Count: 1}
	_ = lib.Counter{}
	fmt.Println(lib.Total([]lib.Shape{lib.Square{Side: 2}}), t.Count, "lib.Quoted")
}
