//go:build !amd64 && !arm64

package platform_clean

const lanes = 1
