//go:build ignore

// Command gen would write the lane tables; the build never compiles it, so
// its type error must never reach the loader.
package main

func main() {
	var lanes int = "eight"
	_ = lanes
}
