package main

import (
	"fmt"

	"fixture/internal/shapes"
)

func main() {
	var sh shapes.Shape = shapes.Square{Side: 2}
	st := shapes.Stats{Total: 3}
	fmt.Println(sh.Area(), st.Total, shapes.Budget{Spent: 1}.Total(), shapes.New())
}
