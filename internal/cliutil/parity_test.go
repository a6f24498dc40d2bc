package cliutil

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// cmdSources reads every .go file (tests excluded) of each cmd/ directory
// into one string per command.
func cmdSources(t *testing.T) map[string]string {
	t.Helper()
	dirs, err := filepath.Glob(filepath.Join("..", "..", "cmd", "*"))
	if err != nil || len(dirs) == 0 {
		t.Fatalf("locating cmd/: %v (found %d)", err, len(dirs))
	}
	out := make(map[string]string, len(dirs))
	for _, dir := range dirs {
		files, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		var sb strings.Builder
		for _, f := range files {
			if strings.HasSuffix(f, "_test.go") {
				continue
			}
			src, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			sb.Write(src)
			sb.WriteByte('\n')
		}
		out[filepath.Base(dir)] = sb.String()
	}
	return out
}

// TestCmdFlagParity source-scans cmd/ and pins the shared-helper contract:
// the observability flags are registered through cliutil everywhere they
// exist, so the six commands cannot drift apart in flag names, defaults, or
// usage strings, and no command builds its own slog handler, so the log
// line format stays behind obs.NewLogger.
func TestCmdFlagParity(t *testing.T) {
	srcs := cmdSources(t)
	for _, want := range []string{"benchdiff", "benchtab", "relcheck", "syncmon", "tracegen", "traceview"} {
		if _, ok := srcs[want]; !ok {
			t.Fatalf("cmd/%s missing from source scan", want)
		}
	}

	// The commands that must carry each shared flag set.
	wantLog := []string{"relcheck", "syncmon", "tracegen", "traceview"}
	wantSample := []string{"benchtab", "relcheck", "syncmon"}
	wantFlush := []string{"benchtab", "relcheck", "syncmon", "tracegen", "traceview"}

	for _, cmd := range wantLog {
		if !strings.Contains(srcs[cmd], "cliutil.AddLogFlags(") {
			t.Errorf("cmd/%s does not register -log/-log-level via cliutil.AddLogFlags", cmd)
		}
	}
	for _, cmd := range wantSample {
		if !strings.Contains(srcs[cmd], "cliutil.AddSampleFlags(") {
			t.Errorf("cmd/%s does not register -sample-interval/-tsdb-out via cliutil.AddSampleFlags", cmd)
		}
	}
	for _, cmd := range wantFlush {
		if !strings.Contains(srcs[cmd], "cliutil.FlushObs(") {
			t.Errorf("cmd/%s does not flush -metrics/-trace-out via cliutil.FlushObs", cmd)
		}
	}

	// No command may hand-roll what the helpers own.
	for cmd, src := range srcs {
		for _, banned := range []string{
			`fs.String("log"`, `fs.String("log-level"`,
			`fs.Duration("sample-interval"`, `fs.String("tsdb-out"`,
			"func flushObs(",
			"slog.NewJSONHandler(", "slog.New(",
		} {
			if strings.Contains(src, banned) {
				t.Errorf("cmd/%s contains %q — use the cliutil helper instead", cmd, banned)
			}
		}
	}
}
