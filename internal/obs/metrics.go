package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
)

// Metric is one exported value: a named gauge or counter with a fixed label
// set.
type Metric struct {
	// Name is the metric's exposition name (e.g. "bullet_goodput_bytes_per_second").
	Name string `json:"name"`
	// Help is the one-line # HELP text.
	Help string `json:"help,omitempty"`
	// Type is "gauge" or "counter".
	Type string `json:"type"`
	// Labels attach dimensions ({protocol="bulletprime",seed="1"}).
	Labels map[string]string `json:"labels,omitempty"`
	Value  float64           `json:"value"`
}

// Registry is an ordered metric set rendering deterministically as
// Prometheus text exposition format or JSON: metrics sort by (name, label
// set), so equal inputs always produce byte-equal output.
type Registry struct {
	metrics []Metric
}

// Gauge adds a gauge metric.
func (r *Registry) Gauge(name, help string, labels map[string]string, value float64) {
	r.metrics = append(r.metrics, Metric{Name: name, Help: help, Type: "gauge", Labels: labels, Value: value})
}

// Counter adds a counter metric (a cumulative total).
func (r *Registry) Counter(name, help string, labels map[string]string, value float64) {
	r.metrics = append(r.metrics, Metric{Name: name, Help: help, Type: "counter", Labels: labels, Value: value})
}

// sorted orders metrics by (name, rendered label set) in place.
func (r *Registry) sorted() {
	sort.SliceStable(r.metrics, func(i, j int) bool {
		a, b := r.metrics[i], r.metrics[j]
		if a.Name != b.Name {
			return a.Name < b.Name
		}
		return labelString(a.Labels) < labelString(b.Labels)
	})
}

// labelString renders a label set in sorted-key Prometheus form, "" when
// empty.
func labelString(labels map[string]string) string {
	if len(labels) == 0 {
		return ""
	}
	var sb strings.Builder
	sb.WriteByte('{')
	for i, k := range sortedKeys(labels) {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(k)
		sb.WriteString(`="`)
		sb.WriteString(escapeLabel(labels[k]))
		sb.WriteByte('"')
	}
	sb.WriteByte('}')
	return sb.String()
}

// escapeLabel escapes a label value per the Prometheus text format:
// backslash, double-quote, and newline.
func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return v
}

// RenderPrometheus writes the registry in Prometheus text exposition format
// version 0.0.4: one # HELP and # TYPE header per metric name, then its
// samples.
func (r *Registry) RenderPrometheus(w io.Writer) error {
	r.sorted()
	lastName := ""
	for _, m := range r.metrics {
		if m.Name != lastName {
			if m.Help != "" {
				if _, err := fmt.Fprintf(w, "# HELP %s %s\n", m.Name, m.Help); err != nil {
					return err
				}
			}
			if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", m.Name, m.Type); err != nil {
				return err
			}
			lastName = m.Name
		}
		if _, err := fmt.Fprintf(w, "%s%s %v\n", m.Name, labelString(m.Labels), m.Value); err != nil {
			return err
		}
	}
	return nil
}

// RenderJSON writes the registry as a JSON array of metrics in the same
// deterministic order as the Prometheus rendering.
func (r *Registry) RenderJSON(w io.Writer) error {
	r.sorted()
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.metrics)
}

// sortedKeys returns a string-keyed map's keys in sorted order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
