package metrics

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Prometheus text-exposition lexer: a minimal validator for the v0.0.4
// format WriteProm emits. CI's check-metrics step scrapes a live fidrd
// and runs this over the page, so an encoder regression (invalid name,
// duplicate series, malformed sample) fails the build instead of
// silently producing an unscrapable endpoint.

// promNameValid reports whether s is a valid Prometheus metric name:
// [a-zA-Z_:][a-zA-Z0-9_:]*.
func promNameValid(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_', r == ':':
		case r >= '0' && r <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// promLabelNameValid reports whether s is a valid label name:
// [a-zA-Z_][a-zA-Z0-9_]*.
func promLabelNameValid(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_':
		case r >= '0' && r <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// lexBraceBlock consumes a quote-aware "{...}" block at the start of s,
// returning the text between the braces and whatever follows the
// closing brace.
func lexBraceBlock(s string) (inner, rest string, err error) {
	if s == "" || s[0] != '{' {
		return "", "", fmt.Errorf("expected '{'")
	}
	end := -1
	inQuote := false
	for j := 1; j < len(s); j++ {
		switch s[j] {
		case '\\':
			if inQuote {
				j++ // skip the escaped rune
			}
		case '"':
			inQuote = !inQuote
		case '}':
			if !inQuote {
				end = j
			}
		}
		if end >= 0 {
			break
		}
	}
	if end < 0 {
		return "", "", fmt.Errorf("unterminated label block")
	}
	return s[1:end], s[end+1:], nil
}

// lexPromSample splits one sample line into (series name, sample value).
// It validates the label block syntax and an optional trailing
// timestamp; anything else after the value is rejected.
func lexPromSample(line string) (name, value string, err error) {
	i := strings.IndexAny(line, "{ ")
	if i < 0 {
		return "", "", fmt.Errorf("no value on line %q", line)
	}
	name = line[:i]
	rest := line[i:]
	if rest[0] == '{' {
		inner, after, berr := lexBraceBlock(rest)
		if berr != nil {
			return "", "", fmt.Errorf("%v in %q", berr, line)
		}
		if err := lexPromLabels(inner); err != nil {
			return "", "", fmt.Errorf("%v in %q", err, line)
		}
		rest = after
	}
	value = strings.TrimSpace(rest)
	if value == "" {
		return "", "", fmt.Errorf("no value on line %q", line)
	}
	f := strings.Fields(value)
	if len(f) > 2 {
		return "", "", fmt.Errorf("trailing garbage after sample value in %q", line)
	}
	if len(f) == 2 {
		// Optional timestamp: must at least be numeric.
		if _, perr := strconv.ParseFloat(f[1], 64); perr != nil {
			return "", "", fmt.Errorf("bad sample timestamp %q in %q", f[1], line)
		}
	}
	return name, f[0], nil
}

// promValueValid checks a sample value the way a scraper would.
func promValueValid(v string) error {
	switch v {
	case "+Inf", "-Inf", "NaN":
		return nil
	}
	if _, err := strconv.ParseFloat(v, 64); err != nil {
		return fmt.Errorf("bad sample value %q", v)
	}
	return nil
}

// lexPromLabels validates a comma-separated label list (the text between
// the braces).
func lexPromLabels(s string) error {
	for len(s) > 0 {
		eq := strings.IndexByte(s, '=')
		if eq < 0 {
			return fmt.Errorf("label without '='")
		}
		if !promLabelNameValid(s[:eq]) {
			return fmt.Errorf("invalid label name %q", s[:eq])
		}
		s = s[eq+1:]
		if len(s) == 0 || s[0] != '"' {
			return fmt.Errorf("unquoted label value")
		}
		end := -1
		for j := 1; j < len(s); j++ {
			if s[j] == '\\' {
				j++
				continue
			}
			if s[j] == '"' {
				end = j
				break
			}
		}
		if end < 0 {
			return fmt.Errorf("unterminated label value")
		}
		s = s[end+1:]
		if len(s) > 0 {
			if s[0] != ',' {
				return fmt.Errorf("garbage after label value")
			}
			s = s[1:]
		}
	}
	return nil
}

// ValidatePromText lexes a Prometheus text exposition page, returning an
// error describing the first malformed line, invalid metric name,
// unparsable sample value, or duplicate TYPE declaration. A nil return
// means a Prometheus scraper would accept the page.
func ValidatePromText(r io.Reader) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	typed := make(map[string]bool)
	samples := 0
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if strings.TrimSpace(line) == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			f := strings.Fields(line)
			if len(f) >= 2 && (f[1] == "TYPE" || f[1] == "HELP") {
				if len(f) < 3 || !promNameValid(f[2]) {
					return fmt.Errorf("line %d: malformed %s comment %q", lineNo, f[1], line)
				}
				if f[1] == "TYPE" {
					if typed[f[2]] {
						return fmt.Errorf("line %d: duplicate TYPE for %q", lineNo, f[2])
					}
					typed[f[2]] = true
				}
			}
			continue
		}
		name, value, err := lexPromSample(line)
		if err != nil {
			return fmt.Errorf("line %d: %v", lineNo, err)
		}
		if !promNameValid(name) {
			return fmt.Errorf("line %d: invalid metric name %q", lineNo, name)
		}
		if err := promValueValid(value); err != nil {
			return fmt.Errorf("line %d: %v", lineNo, err)
		}
		samples++
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if samples == 0 {
		return fmt.Errorf("no samples in exposition")
	}
	return nil
}
