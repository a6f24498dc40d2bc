package trace

import "unicode/utf8"

// scanner decodes the JSON shape WriteJSON produces in one pass over the
// input, without reflection. It accepts any whitespace layout of that shape
// and nothing else: object keys exact, lowercase and at most once each;
// integers plain (no fraction, exponent or leading zero, at most 18
// digits); strings valid UTF-8 without escapes; no null. On anything else it
// marks the scan bad and the caller falls back to encoding/json, so the
// scanner only ever has to agree with encoding/json on what it accepts.
//
// Interval names, interval events and timestamp rows are gathered in three
// arenas and handed out as sub-slices once the scan is done, so the
// allocation count grows with slice doubling, not with the element count.
type scanner struct {
	data []byte
	i    int
	bad  bool

	names    []byte     // interval names, back to back
	events   []EventRec // interval events, back to back
	times    []int64    // timestamp rows, back to back
	ivSpans  []span     // per interval: its name, then its events
	rowSpans []span     // per timestamp row
}

// span is a half-open range of an arena; hi < 0 marks an absent field.
type span struct{ lo, hi int }

// scanJSON decodes data if it has the canonical shape and reports whether
// it did.
func scanJSON(data []byte) (*File, bool) {
	// Non-nil arenas, so an empty [] decodes to an empty slice, not nil,
	// as it does with encoding/json.
	s := scanner{data: data, events: []EventRec{}, times: []int64{}}
	f := s.file()
	s.ws()
	if s.bad || s.i != len(s.data) {
		return nil, false
	}
	s.fill(f)
	return f, true
}

// fill points the intervals and timestamp rows of f into the final arenas.
func (s *scanner) fill(f *File) {
	names := string(s.names)
	sp := s.ivSpans
	for k := range f.Intervals {
		rec := &f.Intervals[k]
		rec.Name = names[sp[0].lo:sp[0].hi]
		if ev := sp[1]; ev.hi >= 0 {
			rec.Events = s.events[ev.lo:ev.hi:ev.hi]
		}
		sp = sp[2:]
	}
	for p, row := range s.rowSpans {
		f.TimesNS[p] = s.times[row.lo:row.hi:row.hi]
	}
}

func (s *scanner) file() *File {
	f := &File{}
	var seen uint
	for more := s.open('{', '}'); more; more = s.next('}') {
		switch string(s.key()) {
		case "version":
			s.once(&seen, 1)
			f.Version = s.int()
		case "counts":
			s.once(&seen, 2)
			f.Counts = s.ints()
		case "messages":
			s.once(&seen, 4)
			f.Messages = s.messages()
		case "intervals":
			s.once(&seen, 8)
			f.Intervals = s.intervals()
		case "times_ns":
			s.once(&seen, 16)
			f.TimesNS = s.rows()
		default:
			s.bad = true
		}
	}
	return f
}

// ints reads an array of ints. Like encoding/json it returns a non-nil
// slice for [].
func (s *scanner) ints() []int {
	out := []int{}
	for more := s.open('[', ']'); more; more = s.next(']') {
		out = append(out, s.int())
	}
	return out
}

func (s *scanner) messages() []MessageRec {
	out := []MessageRec{}
	for more := s.open('[', ']'); more; more = s.next(']') {
		var m MessageRec
		var seen uint
		for more := s.open('{', '}'); more; more = s.next('}') {
			switch string(s.key()) {
			case "from":
				s.once(&seen, 1)
				m.From = s.event()
			case "to":
				s.once(&seen, 2)
				m.To = s.event()
			default:
				s.bad = true
			}
		}
		out = append(out, m)
	}
	return out
}

func (s *scanner) event() EventRec {
	var e EventRec
	var seen uint
	for more := s.open('{', '}'); more; more = s.next('}') {
		switch string(s.key()) {
		case "proc":
			s.once(&seen, 1)
			e.Proc = s.int()
		case "pos":
			s.once(&seen, 2)
			e.Pos = s.int()
		default:
			s.bad = true
		}
	}
	return e
}

// intervals reads the interval records, leaving their names and events as
// spans for fill.
func (s *scanner) intervals() []IntervalRec {
	out := []IntervalRec{}
	for more := s.open('[', ']'); more; more = s.next(']') {
		name, events := span{}, span{hi: -1}
		var seen uint
		for more := s.open('{', '}'); more; more = s.next('}') {
			switch string(s.key()) {
			case "name":
				s.once(&seen, 1)
				name.lo = len(s.names)
				s.names = append(s.names, s.str()...)
				name.hi = len(s.names)
			case "events":
				s.once(&seen, 2)
				events.lo = len(s.events)
				for more := s.open('[', ']'); more; more = s.next(']') {
					s.events = append(s.events, s.event())
				}
				events.hi = len(s.events)
			default:
				s.bad = true
			}
		}
		s.ivSpans = append(s.ivSpans, name, events)
		out = append(out, IntervalRec{})
	}
	return out
}

// rows reads the timestamp rows, leaving their contents as spans for fill.
func (s *scanner) rows() [][]int64 {
	out := [][]int64{}
	for more := s.open('[', ']'); more; more = s.next(']') {
		row := span{lo: len(s.times)}
		for more := s.open('[', ']'); more; more = s.next(']') {
			s.times = append(s.times, s.int64())
		}
		row.hi = len(s.times)
		s.rowSpans = append(s.rowSpans, row)
		out = append(out, nil)
	}
	return out
}

// ws skips JSON whitespace.
func (s *scanner) ws() {
	for s.i < len(s.data) {
		switch s.data[s.i] {
		case ' ', '\t', '\n', '\r':
			s.i++
		default:
			return
		}
	}
}

// eat consumes the byte c after optional whitespace.
func (s *scanner) eat(c byte) {
	s.ws()
	if s.bad || s.i >= len(s.data) || s.data[s.i] != c {
		s.bad = true
		return
	}
	s.i++
}

// open consumes the opening bracket c of a container and reports whether a
// first member follows (false when the container is empty or the scan is
// bad).
func (s *scanner) open(c, closer byte) bool {
	s.eat(c)
	s.ws()
	if s.bad {
		return false
	}
	if s.i < len(s.data) && s.data[s.i] == closer {
		s.i++
		return false
	}
	return true
}

// next consumes the separator after a member and reports whether another
// member follows (false at the closer or when the scan is bad).
func (s *scanner) next(closer byte) bool {
	s.ws()
	if s.bad || s.i >= len(s.data) {
		s.bad = true
		return false
	}
	switch s.data[s.i] {
	case ',':
		s.i++
		return true
	case closer:
		s.i++
		return false
	}
	s.bad = true
	return false
}

// once sets bit in *seen, marking the scan bad if it was already set: a
// duplicate key is left to encoding/json.
func (s *scanner) once(seen *uint, bit uint) {
	if *seen&bit != 0 {
		s.bad = true
	}
	*seen |= bit
}

// key reads an object key and the colon after it.
func (s *scanner) key() []byte {
	k := s.str()
	s.eat(':')
	return k
}

// str reads a string without escapes or control characters and returns its
// bytes, which alias the input.
func (s *scanner) str() []byte {
	s.eat('"')
	ascii := true
	for i := s.i; !s.bad && i < len(s.data); i++ {
		c := s.data[i]
		if c == '"' {
			b := s.data[s.i:i]
			if ascii || utf8.Valid(b) {
				s.i = i + 1
				return b
			}
			break
		}
		if c == '\\' || c < 0x20 {
			break
		}
		if c >= utf8.RuneSelf {
			ascii = false
		}
	}
	s.bad = true
	return nil
}

// int64 reads a plain integer: an optional minus sign and 1 to 18 digits
// without a leading zero, so it cannot overflow.
func (s *scanner) int64() int64 {
	s.ws()
	i := s.i
	neg := i < len(s.data) && s.data[i] == '-'
	if neg {
		i++
	}
	start := i
	var v int64
	for ; i < len(s.data) && '0' <= s.data[i] && s.data[i] <= '9'; i++ {
		v = v*10 + int64(s.data[i]-'0')
	}
	if n := i - start; n == 0 || n > 18 || (n > 1 && s.data[start] == '0') {
		s.bad = true
		return 0
	}
	s.i = i
	if neg {
		v = -v
	}
	return v
}

// int reads a plain integer that fits an int.
func (s *scanner) int() int {
	v := s.int64()
	if int64(int(v)) != v {
		s.bad = true
	}
	return int(v)
}
