package units

import "testing"

func TestFormatBytes(t *testing.T) {
	cases := []struct {
		in   int64
		want string
	}{
		{0, "0B"},
		{512, "512B"},
		{2 * KiB, "2.00KiB"},
		{3 * MiB, "3.00MiB"},
		{5 * GiB, "5.00GiB"},
		{-2 * KiB, "-2.00KiB"},
	}
	for _, c := range cases {
		if got := FormatBytes(c.in); got != c.want {
			t.Errorf("FormatBytes(%v) = %q, want %q", c.in, got, c.want)
		}
	}
}
