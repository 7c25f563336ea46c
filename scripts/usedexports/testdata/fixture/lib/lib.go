// Package lib declares one name for each rule of the audit.
package lib

// Shape is an interface the program uses.
type Shape interface{ Area() float64 }

// Square satisfies Shape: nothing calls Area by name, yet it is used.
type Square struct{ Side float64 }

func (s Square) Area() float64 { return s.Side * s.Side }

// Total is called by the program.
func Total(shapes []Shape) float64 {
	sum := zero
	for _, s := range shapes {
		sum += s.Area()
	}
	return sum
}

// zero is unexported and used by Total.
const zero = 0.0

// helper is unexported and used by lib_test.go alone.
func helper() int { return 4 }

// TestOnly is used by lib_test.go alone.
func TestOnly() int { return 1 }

// Quoted is named by the program only inside a string literal.
func Quoted() {}

// Counter is used by the program, its Count method only through a
// same-named field of another type.
type Counter struct{}

func (Counter) Count() int { return 0 }

// reset is an unexported method used by lib_test.go alone.
func (Counter) reset() {}

// BenchOnly is called by the second module alone.
func BenchOnly() int { return 2 }

// SupportOnly is called by the test-support package alone.
func SupportOnly() int { return 3 }
