package corpus

import (
	"math"
	"strings"
	"testing"
	"time"
)

func TestAlexaCorpusStatsMatchPaper(t *testing.T) {
	c := Alexa()
	if len(c.Commands) != 320 {
		t.Fatalf("commands = %d, want 320", len(c.Commands))
	}
	if mean := c.MeanWords(); math.Abs(mean-5.95) > 0.005 {
		t.Fatalf("mean words = %v, want 5.95", mean)
	}
	// Paper: more than 86.8% have at least 4 words.
	if frac := c.FractionAtLeast(4); frac < 0.868 {
		t.Fatalf("fraction >=4 words = %v, want >= 0.868", frac)
	}
}

func TestGoogleCorpusStatsMatchPaper(t *testing.T) {
	c := Google()
	if len(c.Commands) != 443 {
		t.Fatalf("commands = %d, want 443", len(c.Commands))
	}
	if mean := c.MeanWords(); math.Abs(mean-7.39) > 0.005 {
		t.Fatalf("mean words = %v, want 7.39", mean)
	}
	// Paper: more than 93.9% have at least 5 words.
	if frac := c.FractionAtLeast(5); frac < 0.939 {
		t.Fatalf("fraction >=5 words = %v, want >= 0.939", frac)
	}
}

func TestCorporaAreDeterministic(t *testing.T) {
	a, b := Alexa(), Alexa()
	for i := range a.Commands {
		if a.Commands[i] != b.Commands[i] {
			t.Fatal("Alexa corpus not deterministic")
		}
	}
}

func TestCommandsNonEmptyAndClean(t *testing.T) {
	for _, c := range []Corpus{Alexa(), Google()} {
		for i, cmd := range c.Commands {
			if strings.TrimSpace(cmd) == "" {
				t.Fatalf("%s command %d empty", c.Name, i)
			}
			if strings.Contains(cmd, "  ") {
				t.Fatalf("%s command %d has double spaces: %q", c.Name, i, cmd)
			}
		}
	}
}

func TestSpeakDuration(t *testing.T) {
	if d := SpeakDuration("turn off the lights"); d != 2*time.Second {
		t.Fatalf("4 words at 2 wps = %v, want 2s", d)
	}
	if d := SpeakDuration(""); d != 0 {
		t.Fatalf("empty command duration = %v", d)
	}
}

// SpeakDuration counts words as strings.Fields splits them, without
// building the fields.
func TestWordCountMatchesFields(t *testing.T) {
	cases := []string{"", " ", "turn on the lights", "  padded\tand\nsplit  ", "a\u00a0b\u2003c", "\xff bad utf8", "one"}
	cases = append(cases, Alexa().Commands...)
	cases = append(cases, Google().Commands...)
	for _, c := range cases {
		if got, want := wordCount(c), len(strings.Fields(c)); got != want {
			t.Fatalf("wordCount(%q) = %d, strings.Fields finds %d", c, got, want)
		}
	}
	if allocs := testing.AllocsPerRun(100, func() { SpeakDuration("set a timer for ten minutes") }); allocs != 0 {
		t.Fatalf("SpeakDuration allocated %v times", allocs)
	}
}

func TestNoDelayFractionMatchesPaperClaim(t *testing.T) {
	// Paper §V-A2: with the observed verification times there is an
	// 80%+ chance the query finishes while the user is speaking.
	alexa := Alexa()
	if frac := alexa.NoDelayFraction(1622 * time.Millisecond); frac < 0.80 {
		t.Fatalf("Alexa no-delay fraction at 1.622s = %v, want >= 0.80", frac)
	}
	google := Google()
	if frac := google.NoDelayFraction(1892 * time.Millisecond); frac < 0.80 {
		t.Fatalf("Google no-delay fraction at 1.892s = %v, want >= 0.80", frac)
	}
}

func TestNoDelayFractionMonotone(t *testing.T) {
	c := Alexa()
	prev := 1.0
	for _, v := range []time.Duration{500 * time.Millisecond, time.Second, 2 * time.Second, 4 * time.Second} {
		frac := c.NoDelayFraction(v)
		if frac > prev {
			t.Fatalf("no-delay fraction increased with verification time at %v", v)
		}
		prev = frac
	}
}

func TestPerceivedDelay(t *testing.T) {
	cmd := "turn off the lights" // 2s spoken
	if d := PerceivedDelay(cmd, 1500*time.Millisecond); d != 0 {
		t.Fatalf("case (a) delay = %v, want 0", d)
	}
	if d := PerceivedDelay(cmd, 3*time.Second); d != time.Second {
		t.Fatalf("case (b) delay = %v, want 1s", d)
	}
}

func TestEmptyCorpusEdgeCases(t *testing.T) {
	var c Corpus
	if c.MeanWords() != 0 || c.FractionAtLeast(1) != 0 || c.NoDelayFraction(time.Second) != 0 {
		t.Fatal("empty corpus should report zeros")
	}
}
