package chaos

import (
	"fmt"
	"strconv"
	"strings"
	"time"
)

// ParseSpec parses the CLI fault-schedule grammar used by the -chaos flags:
//
//	spec    := clause (';' clause)*
//	clause  := [role ':'] item (',' item)*
//	item    := key '=' value          (drop, dup, corrupt, delay, jitter,
//	                                   rate, queue)
//	         | 'partition@' at '+' dur
//	         | 'reset@' at
//	at      := duration | 'r' round
//
// e.g. "shard:drop=0.05,jitter=200ms;shard:1:partition@3s+2s;shard:2:reset@r4"
// — 5% drop and ≤200ms jitter on every shard link, a 2s partition of shard 1
// opening 3s in, and a connection reset on shard 2's links at round 4. An
// empty role matches every link.
func ParseSpec(s string) (Spec, error) {
	var spec Spec
	for _, clause := range strings.Split(s, ";") {
		clause = strings.TrimSpace(clause)
		if clause == "" {
			continue
		}
		role, items, err := splitClause(clause)
		if err != nil {
			return Spec{}, err
		}
		rule := Rule{Role: role}
		haveRule := false
		for _, item := range strings.Split(items, ",") {
			item = strings.TrimSpace(item)
			if item == "" {
				continue
			}
			switch {
			case strings.HasPrefix(item, "partition@"):
				at, round, dur, err := parseAtDur(strings.TrimPrefix(item, "partition@"), true)
				if err != nil {
					return Spec{}, fmt.Errorf("chaos spec %q: %v", item, err)
				}
				spec.Partitions = append(spec.Partitions, Window{Role: role, At: at, Round: round, Dur: dur})
			case strings.HasPrefix(item, "reset@"):
				at, round, _, err := parseAtDur(strings.TrimPrefix(item, "reset@"), false)
				if err != nil {
					return Spec{}, fmt.Errorf("chaos spec %q: %v", item, err)
				}
				spec.Resets = append(spec.Resets, Reset{Role: role, At: at, Round: round})
			default:
				if err := parseRuleItem(&rule, item); err != nil {
					return Spec{}, err
				}
				haveRule = true
			}
		}
		if haveRule {
			spec.Rules = append(spec.Rules, rule)
		}
	}
	return spec, nil
}

// splitClause separates the optional role prefix from the item list. The
// role itself may contain ':' ("shard:2"), so the separator is the last ':'
// before the first '=' or '@'.
func splitClause(clause string) (Role, string, error) {
	stop := strings.IndexAny(clause, "=@")
	if stop < 0 {
		return "", "", fmt.Errorf("chaos spec %q: no key=value or @schedule item", clause)
	}
	if i := strings.LastIndex(clause[:stop], ":"); i >= 0 {
		return Role(clause[:i]), clause[i+1:], nil
	}
	return "", clause, nil
}

// parseAtDur parses "3s", "r4", "3s+2s", or "r4+2s".
func parseAtDur(s string, wantDur bool) (at time.Duration, round int64, dur time.Duration, err error) {
	trigger := s
	if i := strings.Index(s, "+"); i >= 0 {
		trigger = s[:i]
		dur, err = time.ParseDuration(s[i+1:])
		if err != nil {
			return 0, 0, 0, fmt.Errorf("bad duration %q", s[i+1:])
		}
	} else if wantDur {
		return 0, 0, 0, fmt.Errorf("missing +duration")
	}
	if strings.HasPrefix(trigger, "r") {
		round, err = strconv.ParseInt(trigger[1:], 10, 64)
		if err != nil || round <= 0 {
			return 0, 0, 0, fmt.Errorf("bad round %q", trigger)
		}
		return 0, round, dur, nil
	}
	at, err = time.ParseDuration(trigger)
	if err != nil {
		return 0, 0, 0, fmt.Errorf("bad offset %q", trigger)
	}
	return at, 0, dur, nil
}

func parseRuleItem(r *Rule, item string) error {
	i := strings.Index(item, "=")
	if i < 0 {
		return fmt.Errorf("chaos spec %q: want key=value", item)
	}
	key, val := item[:i], item[i+1:]
	switch key {
	case "drop", "dup", "corrupt":
		p, err := strconv.ParseFloat(val, 64)
		if err != nil || !(p >= 0 && p < 1) { // NaN is no probability either
			return fmt.Errorf("chaos spec %q: want probability in [0,1)", item)
		}
		switch key {
		case "drop":
			r.Drop = p
		case "dup":
			r.Dup = p
		case "corrupt":
			r.Corrupt = p
		}
	case "delay", "jitter":
		d, err := time.ParseDuration(val)
		if err != nil || d < 0 {
			return fmt.Errorf("chaos spec %q: want duration", item)
		}
		if key == "delay" {
			r.Delay = d
		} else {
			r.Jitter = d
		}
	case "rate":
		n, err := strconv.ParseInt(val, 10, 64)
		if err != nil || n <= 0 {
			return fmt.Errorf("chaos spec %q: want bytes/sec > 0", item)
		}
		r.Rate = n
	case "queue":
		n, err := strconv.Atoi(val)
		if err != nil || n <= 0 {
			return fmt.Errorf("chaos spec %q: want queue depth > 0", item)
		}
		r.Queue = n
	default:
		return fmt.Errorf("chaos spec: unknown key %q", key)
	}
	return nil
}

// render is ParseSpec's inverse: one clause per rule, partition window and
// reset, in that order, so that ParseSpec(s.render()) is s again.
func (s Spec) render() string {
	clause := func(role Role, items string) string {
		if role == "" {
			return items
		}
		return string(role) + ":" + items
	}
	at := func(offset time.Duration, round int64) string {
		if round > 0 {
			return "r" + strconv.FormatInt(round, 10)
		}
		return offset.String()
	}
	var clauses []string
	for _, r := range s.Rules {
		var items []string
		add := func(set bool, key, val string) {
			if set {
				items = append(items, key+"="+val)
			}
		}
		prob := func(p float64) string { return strconv.FormatFloat(p, 'g', -1, 64) }
		add(r.Drop != 0, "drop", prob(r.Drop))
		add(r.Dup != 0, "dup", prob(r.Dup))
		add(r.Corrupt != 0, "corrupt", prob(r.Corrupt))
		add(r.Delay != 0, "delay", r.Delay.String())
		add(r.Jitter != 0, "jitter", r.Jitter.String())
		add(r.Rate != 0, "rate", strconv.FormatInt(r.Rate, 10))
		add(r.Queue != 0, "queue", strconv.Itoa(r.Queue))
		add(len(items) == 0, "drop", "0") // a rule that sets nothing is still a rule
		clauses = append(clauses, clause(r.Role, strings.Join(items, ",")))
	}
	for _, w := range s.Partitions {
		clauses = append(clauses, clause(w.Role, "partition@"+at(w.At, w.Round)+"+"+w.Dur.String()))
	}
	for _, r := range s.Resets {
		clauses = append(clauses, clause(r.Role, "reset@"+at(r.At, r.Round)))
	}
	return strings.Join(clauses, ";")
}
