// Package shapes holds the cases TestNoDeadCodeFixture expects the scan to
// tell apart.
package shapes

// Shape is the interface main calls Area through.
type Shape interface{ Area() float64 }

// Square is reached only as a Shape.
type Square struct{ Side float64 }

// Area is live: main calls it through Shape.
func (s Square) Area() float64 { return s.Side * s.Side }

// Stats has a field named Total that main reads.
type Stats struct{ Total int }

// Budget has a method named Total that main calls.
type Budget struct{ Spent, Left int }

// Total is live: main calls it.
func (b Budget) Total() int { return b.Spent + b.Left }

// Counter counts.
type Counter struct{ n int }

// Total is dead: nothing calls Counter.Total, though a field and another
// type's method are named Total.
func (c *Counter) Total() int { return c.n }

// New is live: main calls it.
func New() *Counter { return &Counter{} }

// helper is dead: only shapes_test.go calls it.
func helper() int { return 1 }
