//go:build !amd64

package model

// Only amd64 has vector kernels: tensor.HasAVX2 is false here and featKNN
// never calls this.

func knnScanAVX2(lanes *[8]float64, q, ft []float32, n, ld int, thr float64, early bool) int {
	return n
}

func knnSymAVX2(lanes *[8]float64, q, ft []float32, thr []float64, ld int, qthr float64) (int, int) {
	return len(thr), 0
}
