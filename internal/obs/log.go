package obs

import (
	"io"
	"log/slog"
)

// NewLogger returns the structured event log the commands and subsystems
// share: one JSON object per line, each written with a single Write so
// concurrent emitters never interleave bytes, events below lvl dropped.
// Every line starts with the keys ts (RFC 3339 with nanoseconds, UTC),
// level (lower-case) and event, followed by the bound and per-call fields
// in the order they were given; an error value is written as its message:
//
//	{"ts":"2026-08-06T12:00:00.000000001Z","level":"info","event":"condition_settled","condition":"ordered","state":"holds"}
//
// This is the only place that knows the line format. Holders keep a
// *slog.Logger where nil means logging is off.
func NewLogger(w io.Writer, lvl slog.Level) *slog.Logger {
	return slog.New(slog.NewJSONHandler(w, &slog.HandlerOptions{Level: lvl, ReplaceAttr: logAttr}))
}

// logAttr rewrites the handler's built-in keys into the line format above.
func logAttr(groups []string, a slog.Attr) slog.Attr {
	if len(groups) > 0 {
		return a
	}
	switch a.Key {
	case slog.TimeKey:
		if a.Value.Kind() == slog.KindTime {
			return slog.Time("ts", a.Value.Time().UTC())
		}
	case slog.LevelKey:
		if lvl, ok := a.Value.Any().(slog.Level); ok {
			return slog.String(slog.LevelKey, levelName(lvl))
		}
	case slog.MessageKey:
		return slog.Attr{Key: "event", Value: a.Value}
	}
	return a
}

// levelName spells the four levels lower-case without allocating.
func levelName(lvl slog.Level) string {
	switch lvl {
	case slog.LevelDebug:
		return "debug"
	case slog.LevelInfo:
		return "info"
	case slog.LevelWarn:
		return "warn"
	case slog.LevelError:
		return "error"
	}
	return lvl.String()
}
