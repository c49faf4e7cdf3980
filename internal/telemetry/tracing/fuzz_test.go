package tracing

import "testing"

// FuzzParseTraceparent feeds arbitrary header values to ParseTraceparent,
// which reads the traceparent of every inbound request: it never panics,
// and a header it accepts renders back (SpanContext.Traceparent) to one
// that parses to the same context. An accepted version-00 header is the
// rendering byte for byte, but for the flags, which a SpanContext does not
// keep (it always renders sampled, 01).
func FuzzParseTraceparent(f *testing.F) {
	for _, h := range []string{
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-00",
		"01-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01-future",
		"ff-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",
		"00-00000000000000000000000000000000-00f067aa0ba902b7-01",
		"00-4BF92F3577B34DA6A3CE929D0E0E4736-00F067AA0BA902B7-01",
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-0",
		"zz-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01-more",
		"",
	} {
		f.Add(h)
	}
	f.Fuzz(func(t *testing.T, h string) {
		sc, err := ParseTraceparent(h)
		if err != nil {
			return
		}
		again, err := ParseTraceparent(sc.Traceparent())
		if err != nil {
			t.Fatalf("%q parsed, but its rendering %q does not: %v", h, sc.Traceparent(), err)
		}
		if again != sc {
			t.Fatalf("%q parsed to %+v, its rendering to %+v", h, sc, again)
		}
		if want := sc.Traceparent(); h[:2] == "00" && h[:53]+want[53:] != want {
			t.Fatalf("version-00 header %q parsed, but renders as %q", h, want)
		}
	})
}
