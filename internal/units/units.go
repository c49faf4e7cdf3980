// Package units provides small helpers for the physical quantities used
// throughout ensemblekit: simulated time (seconds as float64), byte sizes,
// and rates. Simulated time is kept as float64 seconds rather than
// time.Duration because the analytical model (Equations 1-9 of the paper)
// is expressed in real-valued seconds and benefits from exact arithmetic on
// fractional quantities.
package units

import "fmt"

// Common byte sizes.
const (
	KiB int64 = 1 << 10
	MiB int64 = 1 << 20
	GiB int64 = 1 << 30
)

// Seconds is a simulated duration or instant expressed in seconds.
type Seconds = float64

// FormatBytes renders a byte count using binary prefixes.
func FormatBytes(n int64) string {
	neg := ""
	if n < 0 {
		neg = "-"
		n = -n
	}
	switch {
	case n >= GiB:
		return fmt.Sprintf("%s%.2fGiB", neg, float64(n)/float64(GiB))
	case n >= MiB:
		return fmt.Sprintf("%s%.2fMiB", neg, float64(n)/float64(MiB))
	case n >= KiB:
		return fmt.Sprintf("%s%.2fKiB", neg, float64(n)/float64(KiB))
	default:
		return fmt.Sprintf("%s%dB", neg, n)
	}
}
