package cliflag

import (
	"flag"
	"fmt"
	"log/slog"
	"os"
)

// Structured logging for the CLIs. Every binary registers the same two
// flags and calls SetupLog once after flag parsing:
//
//	-log-format plain   stdlib log output, exactly as before (default)
//	-log-format text    log/slog key=value records on stderr
//	-log-format json    log/slog JSON records on stderr
//
// With text or json the slog handler is installed as the process
// default, which also bridges the stdlib log package into it — every
// existing log.Printf in the binary becomes a structured record
// without touching its call sites. The returned logger carries the
// component name.

// LogFlags registers the standard -log-format and -log-level flags.
func LogFlags(fs *flag.FlagSet) (format, level *string) {
	format = fs.String("log-format", "plain",
		"log output: plain (stdlib), text (slog key=value) or json (slog JSON)")
	level = fs.String("log-level", "info", "minimum slog level: debug, info, warn or error")
	return format, level
}

// SetupLog resolves the -log-format/-log-level pair into the process's
// logging configuration and returns the component logger. "plain"
// leaves the stdlib log package untouched (the returned logger then
// writes slog text records to stderr for the few structured call
// sites); "text" and "json" install the handler as the slog default,
// rerouting the stdlib log package through it as well.
func SetupLog(component, format, level string) (*slog.Logger, error) {
	var lvl slog.Level
	if err := lvl.UnmarshalText([]byte(level)); err != nil {
		return nil, fmt.Errorf("cliflag: -log-level %q: %w", level, err)
	}
	opts := &slog.HandlerOptions{Level: lvl}
	var h slog.Handler
	switch format {
	case "plain", "", "text":
		h = slog.NewTextHandler(os.Stderr, opts)
	case "json":
		h = slog.NewJSONHandler(os.Stderr, opts)
	default:
		return nil, fmt.Errorf("cliflag: -log-format %q (want plain, text or json)", format)
	}
	logger := slog.New(h).With("component", component)
	if format != "plain" && format != "" {
		slog.SetDefault(logger)
	}
	return logger, nil
}
