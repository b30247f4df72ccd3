// Package fixture is the mutation tool's test input. Its test kills three
// of Max's four mutants and lets the equivalent b >= m survive; deleting
// Label's one statement leaves strconv unused, so that mutant does not
// build; no test calls Neg, so its mutant is uncovered.
package fixture

import "strconv"

// Max returns the larger of a and b.
func Max(a, b int) int {
	m := a
	if b > m {
		m = b
	}
	return m
}

// Label is x in decimal.
func Label(x int) (s string) {
	s = strconv.Itoa(x)
	return
}

// Neg is -x.
func Neg(x int) int {
	return -x
}
