package geom

import "math"

// Symmetric3 is a symmetric 3×3 matrix stored by its six distinct entries —
// enough linear algebra for covariance analysis (normal estimation).
type Symmetric3 struct {
	XX, XY, XZ, YY, YZ, ZZ float64
}

// Covariance3 accumulates the covariance matrix of a point set about its
// centroid.
func Covariance3(pts []Point3) Symmetric3 {
	if len(pts) == 0 {
		return Symmetric3{}
	}
	var c Point3
	for _, p := range pts {
		c = c.Add(p)
	}
	c = c.Scale(1 / float64(len(pts)))
	var m Symmetric3
	for _, p := range pts {
		d := p.Sub(c)
		m.XX += float64(d.X * d.X)
		m.XY += float64(d.X * d.Y)
		m.XZ += float64(d.X * d.Z)
		m.YY += float64(d.Y * d.Y)
		m.YZ += float64(d.Y * d.Z)
		m.ZZ += float64(d.Z * d.Z)
	}
	inv := 1 / float64(len(pts))
	m.XX *= inv
	m.XY *= inv
	m.XZ *= inv
	m.YY *= inv
	m.YZ *= inv
	m.ZZ *= inv
	return m
}

// EigenSmallest returns the unit eigenvector of the smallest eigenvalue via
// cyclic Jacobi rotations — the surface normal direction when the matrix is
// a local covariance. Degenerate inputs (zero matrix) return the Z axis.
func (m Symmetric3) EigenSmallest() Point3 {
	// Dense working copy a and accumulated rotations v.
	a := [3][3]float64{
		{m.XX, m.XY, m.XZ},
		{m.XY, m.YY, m.YZ},
		{m.XZ, m.YZ, m.ZZ},
	}
	v := [3][3]float64{{1, 0, 0}, {0, 1, 0}, {0, 0, 1}}
	for sweep := 0; sweep < 32; sweep++ {
		off := float64(a[0][1]*a[0][1]) + float64(a[0][2]*a[0][2]) + float64(a[1][2]*a[1][2])
		if off < 1e-24 {
			break
		}
		for p := 0; p < 2; p++ {
			for q := p + 1; q < 3; q++ {
				if math.Abs(a[p][q]) < 1e-18 {
					continue
				}
				theta := (a[q][q] - a[p][p]) / (2 * a[p][q])
				t := 1 / (math.Abs(theta) + math.Sqrt(float64(theta*theta)+1))
				if theta < 0 {
					t = -t
				}
				c := 1 / math.Sqrt(float64(t*t)+1)
				s := t * c
				for k := 0; k < 3; k++ {
					akp, akq := a[k][p], a[k][q]
					a[k][p] = float64(c*akp) - float64(s*akq)
					a[k][q] = float64(s*akp) + float64(c*akq)
				}
				for k := 0; k < 3; k++ {
					apk, aqk := a[p][k], a[q][k]
					a[p][k] = float64(c*apk) - float64(s*aqk)
					a[q][k] = float64(s*apk) + float64(c*aqk)
				}
				for k := 0; k < 3; k++ {
					vkp, vkq := v[k][p], v[k][q]
					v[k][p] = float64(c*vkp) - float64(s*vkq)
					v[k][q] = float64(s*vkp) + float64(c*vkq)
				}
			}
		}
	}
	best := 0
	for i := 1; i < 3; i++ {
		if a[i][i] < a[best][best] {
			best = i
		}
	}
	n := Point3{v[0][best], v[1][best], v[2][best]}
	if l := n.Norm(); l > 1e-12 {
		return n.Scale(1 / l)
	}
	return Point3{Z: 1}
}
