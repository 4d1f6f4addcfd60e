// Package platform_clean is a package the way a vector kernel leaves one: a
// per-platform constant declared once in each of three files of which the
// build constraints pick exactly one, a generator the build ignores, and a
// function whose body is assembly. The loader must see the package the
// compiler sees, and a body-less declaration is a leaf: nothing to descend
// into, nothing to report.
package platform_clean

import "repro/internal/tensor"

// sumLanes is implemented in assembly (no body here, none for the analyzers).
func sumLanes(x *float32, n int) float32

// Sum calls straight into the assembly from a hot path.
//
//edgepc:hotpath
func Sum(m *tensor.Matrix) float32 {
	if len(m.Data) < lanes {
		return 0
	}
	return sumLanes(&m.Data[0], len(m.Data)/lanes)
}
