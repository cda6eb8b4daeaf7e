package obs

import (
	"fmt"
	"io"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/metrics"
)

// WriteProm renders an arbitrary stats value — the same structs
// /v1/stats serves — in the Prometheus text exposition format (one
// `name{labels} value` sample per line). It walks the value by
// reflection so every existing and future counter surfaces without a
// hand-maintained registry:
//
//   - struct fields extend the metric name with their snake_cased
//     field name (embedded structs add nothing: their fields flatten
//     into the parent, as on the JSON wire); numeric fields become
//     samples, bools become 0/1
//   - time.Duration fields become <name>_seconds
//   - metrics.HistogramSnapshot becomes quantile-labeled
//     <name>_seconds samples plus <name>_count and <name>_max_seconds
//   - slice elements are labeled (replicas → {replica="3"}), maps by
//     sorted key ({key="..."})
//   - a struct with string fields additionally emits one
//     <name>_info{field="value",...} 1 sample, so identity strings
//     (URLs, roles, states) surface as labels, the Prometheus idiom
//
// Output is deterministic for a fixed input: field order is source
// order, map keys are sorted.
func WriteProm(w io.Writer, prefix string, v interface{}) {
	p := promWriter{w: w}
	p.walk(reflect.ValueOf(v), sanitizeMetricName(prefix), nil)
}

// PromContentType is the exposition content type.
const PromContentType = "text/plain; version=0.0.4; charset=utf-8"

type promLabel struct{ key, value string }

type promWriter struct {
	w io.Writer
}

var (
	durationType = reflect.TypeOf(time.Duration(0))
	timeType     = reflect.TypeOf(time.Time{})
	histType     = reflect.TypeOf(metrics.HistogramSnapshot{})
)

func (p *promWriter) walk(v reflect.Value, name string, labels []promLabel) {
	if !v.IsValid() {
		return
	}
	switch v.Kind() {
	case reflect.Ptr, reflect.Interface:
		if v.IsNil() {
			return
		}
		p.walk(v.Elem(), name, labels)
	case reflect.Struct:
		switch v.Type() {
		case timeType:
			return // point-in-time fields are not gauges
		case histType:
			p.histogram(v.Interface().(metrics.HistogramSnapshot), name, labels)
			return
		}
		p.structInfo(v, name, labels)
		for i := 0; i < v.NumField(); i++ {
			f := v.Type().Field(i)
			if !f.IsExported() {
				continue
			}
			if f.Anonymous {
				// Embedded structs flatten, as they do on the JSON wire.
				p.walk(v.Field(i), name, labels)
				continue
			}
			p.walk(v.Field(i), name+"_"+sanitizeMetricName(snakeCase(f.Name)), labels)
		}
	case reflect.Slice, reflect.Array:
		if v.Kind() == reflect.Slice && v.IsNil() {
			return
		}
		lk := elementLabel(name)
		for i := 0; i < v.Len(); i++ {
			p.walk(v.Index(i), name, append(labels[:len(labels):len(labels)],
				promLabel{key: lk, value: strconv.Itoa(i)}))
		}
	case reflect.Map:
		if v.IsNil() || v.Type().Key().Kind() != reflect.String {
			return
		}
		keys := make([]string, 0, v.Len())
		for _, k := range v.MapKeys() {
			keys = append(keys, k.String())
		}
		sort.Strings(keys)
		for _, k := range keys {
			p.walk(v.MapIndex(reflect.ValueOf(k)), name, append(labels[:len(labels):len(labels)],
				promLabel{key: "key", value: k}))
		}
	case reflect.Bool:
		val := 0.0
		if v.Bool() {
			val = 1
		}
		p.sample(name, labels, val)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		if v.Type() == durationType {
			p.sample(name+"_seconds", labels, time.Duration(v.Int()).Seconds())
			return
		}
		p.sample(name, labels, float64(v.Int()))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		p.sample(name, labels, float64(v.Uint()))
	case reflect.Float32, reflect.Float64:
		p.sample(name, labels, v.Float())
	}
	// Strings are handled by structInfo; everything else is skipped.
}

// structInfo emits one <name>_info sample labeling the struct's
// immediate string fields, when it has any.
func (p *promWriter) structInfo(v reflect.Value, name string, labels []promLabel) {
	var info []promLabel
	for i := 0; i < v.NumField(); i++ {
		f := v.Type().Field(i)
		if !f.IsExported() || v.Field(i).Kind() != reflect.String {
			continue
		}
		if s := v.Field(i).String(); s != "" {
			info = append(info, promLabel{key: sanitizeLabelName(snakeCase(f.Name)), value: s})
		}
	}
	if len(info) == 0 {
		return
	}
	p.sample(name+"_info", append(labels[:len(labels):len(labels)], info...), 1)
}

func (p *promWriter) histogram(h metrics.HistogramSnapshot, name string, labels []promLabel) {
	base := len(labels)
	q := func(quantile string, d time.Duration) {
		p.sample(name+"_seconds", append(labels[:base:base],
			promLabel{key: "quantile", value: quantile}), d.Seconds())
	}
	q("0.5", h.P50)
	q("0.95", h.P95)
	q("0.99", h.P99)
	q("0.999", h.P999)
	p.sample(name+"_count", labels, float64(h.Count))
	p.sample(name+"_max_seconds", labels, h.Max.Seconds())
}

func (p *promWriter) sample(name string, labels []promLabel, value float64) {
	var sb strings.Builder
	sb.WriteString(name)
	if len(labels) > 0 {
		sb.WriteByte('{')
		for i, l := range labels {
			if i > 0 {
				sb.WriteByte(',')
			}
			sb.WriteString(l.key)
			sb.WriteString(`="`)
			sb.WriteString(escapeLabelValue(l.value))
			sb.WriteByte('"')
		}
		sb.WriteByte('}')
	}
	fmt.Fprintf(p.w, "%s %s\n", sb.String(), strconv.FormatFloat(value, 'g', -1, 64))
}

func escapeLabelValue(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, `"`, `\"`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// elementLabel names the index label of a slice metric: "replicas"
// elements get replica="i", anything else idx="i".
func elementLabel(name string) string {
	if i := strings.LastIndexByte(name, '_'); i >= 0 {
		name = name[i+1:]
	}
	if strings.HasSuffix(name, "s") && len(name) > 1 {
		return name[:len(name)-1]
	}
	return "idx"
}

// snakeCase converts a Go exported name to snake_case, keeping
// acronym runs intact: OKOnDeadline → ok_on_deadline, AppliedLSN →
// applied_lsn, P99 → p99.
func snakeCase(s string) string {
	var sb strings.Builder
	rs := []rune(s)
	for i, r := range rs {
		if r >= 'A' && r <= 'Z' {
			// Word boundary: previous is lower/digit, or this upper run
			// ends here (next rune is lower).
			if i > 0 {
				prevLower := rs[i-1] >= 'a' && rs[i-1] <= 'z' || rs[i-1] >= '0' && rs[i-1] <= '9'
				nextLower := i+1 < len(rs) && rs[i+1] >= 'a' && rs[i+1] <= 'z'
				if prevLower || (nextLower && rs[i-1] >= 'A' && rs[i-1] <= 'Z') {
					sb.WriteByte('_')
				}
			}
			sb.WriteRune(r - 'A' + 'a')
			continue
		}
		sb.WriteRune(r)
	}
	return sb.String()
}

func sanitizeMetricName(s string) string {
	return sanitize(s, func(r rune, first bool) bool {
		return r == '_' || r == ':' || r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' ||
			(!first && r >= '0' && r <= '9')
	})
}

func sanitizeLabelName(s string) string {
	return sanitize(s, func(r rune, first bool) bool {
		return r == '_' || r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' ||
			(!first && r >= '0' && r <= '9')
	})
}

func sanitize(s string, valid func(r rune, first bool) bool) string {
	var sb strings.Builder
	for i, r := range s {
		if valid(r, i == 0) {
			sb.WriteRune(r)
		} else {
			sb.WriteByte('_')
		}
	}
	if sb.Len() == 0 {
		return "_"
	}
	return sb.String()
}
