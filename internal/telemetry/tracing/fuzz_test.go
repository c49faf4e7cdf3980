package tracing

import "testing"

// FuzzParseTraceparent feeds arbitrary header values to ParseTraceparent,
// which reads the traceparent of every inbound request: it never panics,
// and a header it accepts renders back (SpanContext.Traceparent) to one
// that parses to the same context. The rendering is the accepted header
// byte for byte, flags included, as version 00: a later version's header
// loses only its version and its trailing fields.
func FuzzParseTraceparent(f *testing.F) {
	for _, h := range []string{
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-00",
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-ff",
		"02-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-00-future",
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
		if want := "00" + h[2:55]; sc.Traceparent() != want {
			t.Fatalf("header %q parsed, but renders as %q, want %q", h, sc.Traceparent(), want)
		}
	})
}
