package cliutil

import (
	"errors"
	"strings"
	"testing"
)

func TestValidators(t *testing.T) {
	cases := []struct {
		name    string
		err     error
		wantErr bool
		wantSub string
	}{
		{"oneof match", OneOf("-speaker", "echo", "echo", "ghm"), false, ""},
		{"oneof second match", OneOf("-speaker", "ghm", "echo", "ghm"), false, ""},
		{"oneof miss", OneOf("-speaker", "siri", "echo", "ghm"), true, `invalid -speaker "siri" (want echo or ghm)`},
		{"oneof case sensitive", OneOf("-spot", "a", "A", "B"), true, `invalid -spot "a"`},
		{"oneof three choices", OneOf("-testbed", "garage", "house", "apartment", "office"), true, "want house, apartment, or office"},
		{"oneof single choice", OneOf("-mode", "x", "run"), true, "(want run)"},
		{"eachof all valid", EachOf("-devices", "pixel5,pixel4a,watch4", "pixel5", "pixel4a", "watch4"), false, ""},
		{"eachof tolerates spacing and stray commas", EachOf("-devices", " pixel5 ,, watch4 ", "pixel5", "pixel4a", "watch4"), false, ""},
		{"eachof empty list", EachOf("-devices", "", "pixel5"), false, ""},
		{"eachof bad item", EachOf("-devices", "pixel5,iphone", "pixel5", "pixel4a", "watch4"), true, `invalid -devices "iphone"`},
		{"positive ok", Positive("-days", 7), false, ""},
		{"positive boundary", Positive("-days", 1), false, ""},
		{"positive zero", Positive("-days", 0), true, "invalid -days 0 (want a positive integer)"},
		{"positive negative", Positive("-queries", -3), true, "invalid -queries -3"},
		{"nonempty ok", NonEmpty("-in", "run.vgc"), false, ""},
		{"nonempty missing", NonEmpty("-in", ""), true, "-in is required"},
		{"ipv4 ok", IPv4("-ip", "192.168.1.200"), false, ""},
		{"ipv4 typo", IPv4("-ip", "192.168.1.2OO"), true, `invalid -ip "192.168.1.2OO" (want a dotted-decimal IPv4 address)`},
		{"ipv4 ipv6", IPv4("-ip", "::1"), true, `invalid -ip "::1"`},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if (c.err != nil) != c.wantErr {
				t.Fatalf("error = %v, want error %v", c.err, c.wantErr)
			}
			if c.wantErr && !strings.Contains(c.err.Error(), c.wantSub) {
				t.Fatalf("error %q does not contain %q", c.err, c.wantSub)
			}
		})
	}
}

func TestFirstError(t *testing.T) {
	if err := FirstError(nil, nil, nil); err != nil {
		t.Fatalf("FirstError of nils = %v", err)
	}
	first := errors.New("first")
	second := errors.New("second")
	if err := FirstError(nil, first, second); err != first {
		t.Fatalf("FirstError = %v, want the first non-nil error", err)
	}
	if err := FirstError(); err != nil {
		t.Fatalf("FirstError() = %v", err)
	}
}
