// Package cliutil holds the shared flag-validation helpers behind the
// vg* commands' common contract: an invalid flag value is a usage
// error — the command prints the error plus its usage text and exits
// with code 2 before any work starts, instead of letting a typo
// surface later as a runtime failure (or worse, silently behave like
// the default).
package cliutil

import (
	"fmt"
	"strings"

	"voiceguard/internal/pcap"
)

// OneOf rejects value unless it is exactly one of allowed.
func OneOf(flagName, value string, allowed ...string) error {
	for _, a := range allowed {
		if value == a {
			return nil
		}
	}
	return fmt.Errorf("invalid %s %q (want %s)", flagName, value, orList(allowed))
}

// EachOf validates a comma-separated list flag against allowed.
// Empty items — stray commas, surrounding whitespace — are ignored,
// matching how the commands themselves parse the list.
func EachOf(flagName, value string, allowed ...string) error {
	for _, item := range strings.Split(value, ",") {
		item = strings.TrimSpace(item)
		if item == "" {
			continue
		}
		if err := OneOf(flagName, item, allowed...); err != nil {
			return err
		}
	}
	return nil
}

// Positive rejects an integer flag below 1.
func Positive(flagName string, value int) error {
	if value < 1 {
		return fmt.Errorf("invalid %s %d (want a positive integer)", flagName, value)
	}
	return nil
}

// NonEmpty rejects a required string flag that was left unset.
func NonEmpty(flagName, value string) error {
	if value == "" {
		return fmt.Errorf("%s is required", flagName)
	}
	return nil
}

// IPv4 rejects a value that is not a dotted-decimal IPv4 address, the
// only address form a capture carries.
func IPv4(flagName, value string) error {
	if _, err := pcap.ParseIPv4(value); err != nil {
		return fmt.Errorf("invalid %s %q (want a dotted-decimal IPv4 address)", flagName, value)
	}
	return nil
}

// FirstError returns the first non-nil error, letting a command list
// every validation in a single call site.
func FirstError(errs ...error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// orList renders allowed as a human-readable "a, b, or c" choice.
func orList(allowed []string) string {
	switch len(allowed) {
	case 0:
		return "nothing"
	case 1:
		return allowed[0]
	case 2:
		return allowed[0] + " or " + allowed[1]
	default:
		return strings.Join(allowed[:len(allowed)-1], ", ") + ", or " + allowed[len(allowed)-1]
	}
}
