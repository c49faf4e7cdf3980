package tracing

import (
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
	"time"
)

// The OTLP/JSON wire shape (resourceSpans → scopeSpans → spans), so the
// /v1/jobs/{id}/spans payload loads directly into any OpenTelemetry
// consumer. Timestamps are decimal strings of Unix nanos, IDs are hex,
// per the OTLP JSON mapping. Our span-kind taxonomy ("stage:S",
// "dtl:put", ...) has no OTLP enum slot, so it rides in the "ek.kind"
// attribute; the enum kind is SERVER for the inbound request span and
// INTERNAL otherwise.

const kindAttrKey = "ek.kind"

type otlpDoc struct {
	ResourceSpans []otlpResourceSpans `json:"resourceSpans"`
	// DroppedSpans is not an OTLP field (consumers ignore it): how many
	// spans of the trace the store dropped before this export.
	DroppedSpans int `json:"droppedSpans,omitempty"`
}

type otlpResourceSpans struct {
	Resource   otlpResource     `json:"resource"`
	ScopeSpans []otlpScopeSpans `json:"scopeSpans"`
}

type otlpResource struct {
	Attributes []otlpKV `json:"attributes"`
}

type otlpScopeSpans struct {
	Scope otlpScope  `json:"scope"`
	Spans []otlpSpan `json:"spans"`
}

type otlpScope struct {
	Name string `json:"name"`
}

type otlpSpan struct {
	TraceID           string      `json:"traceId"`
	SpanID            string      `json:"spanId"`
	ParentSpanID      string      `json:"parentSpanId,omitempty"`
	Name              string      `json:"name"`
	Kind              int         `json:"kind"`
	StartTimeUnixNano string      `json:"startTimeUnixNano"`
	EndTimeUnixNano   string      `json:"endTimeUnixNano"`
	Attributes        []otlpKV    `json:"attributes,omitempty"`
	Status            *otlpStatus `json:"status,omitempty"`
}

type otlpStatus struct {
	Code    int    `json:"code"` // 2 = STATUS_CODE_ERROR
	Message string `json:"message,omitempty"`
}

type otlpKV struct {
	Key   string    `json:"key"`
	Value otlpValue `json:"value"`
}

type otlpValue struct {
	StringValue *string  `json:"stringValue,omitempty"`
	IntValue    *string  `json:"intValue,omitempty"` // OTLP JSON encodes int64 as string
	DoubleValue *float64 `json:"doubleValue,omitempty"`
	BoolValue   *bool    `json:"boolValue,omitempty"`
}

func toOTLPValue(v any) otlpValue {
	switch x := v.(type) {
	case nil:
		return otlpValue{} // an empty AnyValue, which reads back as nil
	case string:
		return otlpValue{StringValue: &x}
	case bool:
		return otlpValue{BoolValue: &x}
	case int:
		s := strconv.FormatInt(int64(x), 10)
		return otlpValue{IntValue: &s}
	case int64:
		s := strconv.FormatInt(x, 10)
		return otlpValue{IntValue: &s}
	case float64:
		return otlpValue{DoubleValue: &x}
	default:
		s := fmt.Sprint(v)
		return otlpValue{StringValue: &s}
	}
}

func fromOTLPValue(v otlpValue) any {
	switch {
	case v.StringValue != nil:
		return *v.StringValue
	case v.IntValue != nil:
		n, err := strconv.ParseInt(*v.IntValue, 10, 64)
		if err != nil {
			return *v.IntValue
		}
		return n
	case v.DoubleValue != nil:
		return *v.DoubleValue
	case v.BoolValue != nil:
		return *v.BoolValue
	}
	return nil
}

// sortSpans orders spans by start time, span ID as tiebreak; spans
// equal in both keep their order.
func sortSpans(spans []SpanData) {
	sort.SliceStable(spans, func(i, k int) bool {
		if !spans[i].Start.Equal(spans[k].Start) {
			return spans[i].Start.Before(spans[k].Start)
		}
		return spans[i].SpanID.String() < spans[k].SpanID.String()
	})
}

// WriteOTLP writes the spans as one OTLP/JSON document under a single
// resource named service. Spans are emitted in sortSpans order so the
// document is deterministic for a fixed input. A non-zero dropped
// (Store.TraceDropped) marks the document truncated.
func WriteOTLP(w io.Writer, service string, spans []SpanData, dropped int) error {
	sorted := append([]SpanData(nil), spans...)
	sortSpans(sorted)
	out := make([]otlpSpan, 0, len(sorted))
	for _, d := range sorted {
		os := otlpSpan{
			TraceID:           d.TraceID.String(),
			SpanID:            d.SpanID.String(),
			Name:              d.Name,
			Kind:              1, // SPAN_KIND_INTERNAL
			StartTimeUnixNano: strconv.FormatInt(d.Start.UnixNano(), 10),
			EndTimeUnixNano:   strconv.FormatInt(d.End.UnixNano(), 10),
		}
		if d.Parent.IsValid() {
			os.ParentSpanID = d.Parent.String()
		}
		if d.Kind == "server" {
			os.Kind = 2 // SPAN_KIND_SERVER
		}
		if d.Kind != "" {
			os.Attributes = append(os.Attributes, otlpKV{Key: kindAttrKey, Value: toOTLPValue(d.Kind)})
		}
		for _, a := range d.Attrs {
			os.Attributes = append(os.Attributes, otlpKV{Key: a.Key, Value: toOTLPValue(a.Value)})
		}
		if d.IsError {
			os.Status = &otlpStatus{Code: 2, Message: d.Status}
		}
		out = append(out, os)
	}
	svc := service
	doc := otlpDoc{DroppedSpans: dropped, ResourceSpans: []otlpResourceSpans{{
		Resource: otlpResource{Attributes: []otlpKV{{Key: "service.name", Value: otlpValue{StringValue: &svc}}}},
		ScopeSpans: []otlpScopeSpans{{
			Scope: otlpScope{Name: "ensemblekit/internal/telemetry/tracing"},
			Spans: out,
		}},
	}}}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}

// ReadOTLP parses an OTLP/JSON document written by WriteOTLP back into
// SpanData (traceview consumes span files offline). It tolerates
// foreign documents: unknown fields are ignored, and spans missing the
// ek.kind attribute get an empty Kind.
func ReadOTLP(r io.Reader) ([]SpanData, error) {
	var doc otlpDoc
	if err := json.NewDecoder(r).Decode(&doc); err != nil {
		return nil, fmt.Errorf("tracing: decode OTLP: %w", err)
	}
	var spans []SpanData
	for _, rs := range doc.ResourceSpans {
		for _, ss := range rs.ScopeSpans {
			for _, os := range ss.Spans {
				d, err := fromOTLPSpan(os)
				if err != nil {
					return nil, err
				}
				spans = append(spans, d)
			}
		}
	}
	return spans, nil
}

func fromOTLPSpan(os otlpSpan) (SpanData, error) {
	var d SpanData
	if err := decodeHexID(os.TraceID, d.TraceID[:]); err != nil {
		return d, fmt.Errorf("tracing: span %q traceId: %w", os.Name, err)
	}
	if err := decodeHexID(os.SpanID, d.SpanID[:]); err != nil {
		return d, fmt.Errorf("tracing: span %q spanId: %w", os.Name, err)
	}
	if os.ParentSpanID != "" {
		if err := decodeHexID(os.ParentSpanID, d.Parent[:]); err != nil {
			return d, fmt.Errorf("tracing: span %q parentSpanId: %w", os.Name, err)
		}
	}
	d.Name = os.Name
	start, err := strconv.ParseInt(os.StartTimeUnixNano, 10, 64)
	if err != nil {
		return d, fmt.Errorf("tracing: span %q start: %w", os.Name, err)
	}
	end, err := strconv.ParseInt(os.EndTimeUnixNano, 10, 64)
	if err != nil {
		return d, fmt.Errorf("tracing: span %q end: %w", os.Name, err)
	}
	d.Start = time.Unix(0, start).UTC()
	d.End = time.Unix(0, end).UTC()
	for _, kv := range os.Attributes {
		if kv.Key == kindAttrKey {
			if s, ok := fromOTLPValue(kv.Value).(string); ok {
				d.Kind = s
			}
			continue
		}
		d.Attrs = append(d.Attrs, Attr{Key: kv.Key, Value: fromOTLPValue(kv.Value)})
	}
	if os.Status != nil && os.Status.Code == 2 {
		d.IsError = true
		d.Status = os.Status.Message
	}
	return d, nil
}

func decodeHexID(s string, dst []byte) error {
	if len(s) != 2*len(dst) {
		return fmt.Errorf("want %d hex digits, got %d", 2*len(dst), len(s))
	}
	if _, err := hex.Decode(dst, []byte(s)); err != nil {
		return fmt.Errorf("bad hex %q: %w", s, err)
	}
	return nil
}
