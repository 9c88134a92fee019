package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// WritePrometheus renders every registered family in the Prometheus
// text exposition format (version 0.0.4): # HELP / # TYPE comments
// followed by one sample line per child, sample windows expanded into
// summary quantile/_sum/_count series. A nil registry writes nothing.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	metrics := append([]*metric(nil), r.metrics...)
	r.mu.Unlock()

	var sb strings.Builder
	for _, m := range metrics {
		fmt.Fprintf(&sb, "# HELP %s %s\n", m.name, escapeHelp(m.help))
		fmt.Fprintf(&sb, "# TYPE %s %s\n", m.name, m.kind.promType())
		switch m.kind {
		case kindCounter:
			fmt.Fprintf(&sb, "%s %d\n", m.name, m.counter.Value())
		case kindGauge:
			fmt.Fprintf(&sb, "%s %d\n", m.name, m.gauge.Value())
		case kindCounterFunc:
			fmt.Fprintf(&sb, "%s %d\n", m.name, m.intFn())
		case kindGaugeFunc:
			fmt.Fprintf(&sb, "%s %s\n", m.name, formatFloat(m.floatFn()))
		case kindCounterVec:
			for _, c := range m.vec.sorted() {
				fmt.Fprintf(&sb, "%s{%s} %d\n", m.name, promLabels(m.vec.labels, c.values), c.counter.Value())
			}
		case kindGaugeVec:
			for _, c := range m.vec.sorted() {
				fmt.Fprintf(&sb, "%s{%s} %d\n", m.name, promLabels(m.vec.labels, c.values), c.gauge.Value())
			}
		case kindSampleVec:
			for _, c := range m.vec.sorted() {
				writePromSummary(&sb, m.name, promLabels(m.vec.labels, c.values), c.sample)
			}
		}
	}
	_, err := io.WriteString(w, sb.String())
	return err
}

// writePromSummary renders one child window as summary series: one
// line per summaryQuantiles over the retained window (none while it is
// empty), then the lifetime _sum and _count.
func writePromSummary(sb *strings.Builder, name, labels string, s *Sample) {
	if window := s.Snapshot(); len(window) > 0 {
		for i, q := range quantiles(window) {
			fmt.Fprintf(sb, "%s{%s,quantile=%q} %s\n", name, labels, formatFloat(summaryQuantiles[i]), formatFloat(q))
		}
	}
	count, sum := s.Totals()
	fmt.Fprintf(sb, "%s_sum{%s} %s\n", name, labels, formatFloat(sum))
	fmt.Fprintf(sb, "%s_count{%s} %d\n", name, labels, count)
}

// promLabels renders label pairs for one child.
func promLabels(names, values []string) string {
	var sb strings.Builder
	for i, n := range names {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, "%s=%q", n, escapeLabel(values[i]))
	}
	return sb.String()
}

func escapeLabel(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, "\n", `\n`)
	return s
}

func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, "\n", `\n`)
	return s
}

func formatFloat(f float64) string {
	switch {
	case math.IsInf(f, 1):
		return "+Inf"
	case math.IsInf(f, -1):
		return "-Inf"
	case math.IsNaN(f):
		return "NaN"
	}
	return strconv.FormatFloat(f, 'g', -1, 64)
}

// summaryJSON is the JSON form of one sample window in the vars dump:
// lifetime count and sum, and the window's quantiles keyed by
// probability (absent while the window is empty).
type summaryJSON struct {
	Count     int64              `json:"count"`
	Sum       float64            `json:"sum"`
	Quantiles map[string]float64 `json:"quantiles,omitempty"`
}

func summaryOf(s *Sample) summaryJSON {
	var out summaryJSON
	out.Count, out.Sum = s.Totals()
	if window := s.Snapshot(); len(window) > 0 {
		out.Quantiles = make(map[string]float64, len(summaryQuantiles))
		for i, q := range quantiles(window) {
			out.Quantiles[formatFloat(summaryQuantiles[i])] = q
		}
	}
	return out
}

// Snapshot returns every family's current value as a JSON-marshalable
// map: plain instruments map name -> value, labeled families map
// name -> {"label=value,...": value}, sample windows to
// {count, sum, quantiles}. A nil registry yields an empty map.
func (r *Registry) Snapshot() map[string]any {
	out := make(map[string]any)
	if r == nil {
		return out
	}
	r.mu.Lock()
	metrics := append([]*metric(nil), r.metrics...)
	r.mu.Unlock()

	for _, m := range metrics {
		switch m.kind {
		case kindCounter:
			out[m.name] = m.counter.Value()
		case kindGauge:
			out[m.name] = m.gauge.Value()
		case kindCounterFunc:
			out[m.name] = m.intFn()
		case kindGaugeFunc:
			out[m.name] = m.floatFn()
		case kindCounterVec, kindGaugeVec, kindSampleVec:
			kids := make(map[string]any)
			for _, c := range m.vec.sorted() {
				key := childKey(m.vec.labels, c.values)
				switch m.kind {
				case kindCounterVec:
					kids[key] = c.counter.Value()
				case kindGaugeVec:
					kids[key] = c.gauge.Value()
				default:
					kids[key] = summaryOf(c.sample)
				}
			}
			out[m.name] = kids
		}
	}
	return out
}

func childKey(names, values []string) string {
	var sb strings.Builder
	for i, n := range names {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(n)
		sb.WriteByte('=')
		sb.WriteString(values[i])
	}
	return sb.String()
}

// WriteJSON renders the Snapshot as indented JSON — the
// /debug/vars-style dump served by buserve and printed by the CLIs'
// -metrics-dump flag.
func (r *Registry) WriteJSON(w io.Writer) error {
	blob, err := json.MarshalIndent(r.Snapshot(), "", "  ")
	if err != nil {
		return err
	}
	_, err = w.Write(append(blob, '\n'))
	return err
}
