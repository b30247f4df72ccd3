package fixture

import "testing"

func TestMax(t *testing.T) {
	if Max(1, 2) != 2 || Max(2, 1) != 2 {
		t.Fatal("Max is not the larger")
	}
}

func TestLabel(t *testing.T) {
	if Label(7) != "7" {
		t.Fatal("Label(7) is not 7")
	}
}
