// Package corpus provides the voice-command corpora used in the
// delay-impact analysis of §V-A2. The paper crawled 320 commonly used
// Alexa commands (mean 5.95 words, 86.8 % with at least 4 words) and
// 443 Google Assistant commands (mean 7.39 words, 93.9 % with at
// least 5 words); this package synthesises corpora with exactly those
// word-count statistics, since only the word counts enter the
// analysis (speech pace: 2 words per second).
package corpus

import (
	"strings"
	"sync"
	"time"
	"unicode"

	"voiceguard/internal/rng"
)

// WordsPerSecond is the paper's assumed human speech pace.
const WordsPerSecond = 2.0

// Corpus is a set of voice commands.
type Corpus struct {
	Name     string
	Commands []string
}

// The corpora are pure functions of fixed seeds, so each is built once
// per process and shared by every caller.
var (
	alexaOnce  = sync.OnceValue(func() Corpus { return build("alexa", 320, 5.95, alexaDist, 101) })
	googleOnce = sync.OnceValue(func() Corpus { return build("google", 443, 7.39, googleDist, 202) })
)

// Alexa returns the synthetic Alexa corpus: 320 commands, mean word
// count 5.95, at least 86.8 % with 4+ words. Commands is shared by
// every caller in the process and is read-only; copy it before
// modifying.
func Alexa() Corpus { return alexaOnce() }

// Google returns the synthetic Google Assistant corpus: 443 commands,
// mean word count 7.39, at least 93.9 % with 5+ words. Commands is
// shared by every caller in the process and is read-only; copy it
// before modifying.
func Google() Corpus { return googleOnce() }

// countDist maps a word count to its sampling weight.
type countDist []struct {
	words  int
	weight float64
}

// alexaDist skews short (wake word + terse commands).
var alexaDist = countDist{
	{2, 0.04}, {3, 0.08}, {4, 0.17}, {5, 0.21}, {6, 0.17},
	{7, 0.12}, {8, 0.09}, {9, 0.06}, {10, 0.04}, {11, 0.02},
}

// googleDist skews longer (conversational phrasing).
var googleDist = countDist{
	{3, 0.02}, {4, 0.03}, {5, 0.14}, {6, 0.18}, {7, 0.22},
	{8, 0.16}, {9, 0.11}, {10, 0.07}, {11, 0.04}, {12, 0.03},
}

// build synthesises n commands whose total word count is
// round(n*meanWords), sampling word counts from dist and then
// adjusting so the mean is exact.
func build(name string, n int, meanWords float64, dist countDist, seed int64) Corpus {
	src := rng.New(seed)
	counts := make([]int, n)
	total := 0
	for i := range counts {
		counts[i] = sampleCount(dist, src)
		total += counts[i]
	}
	minWords, maxWords := dist[0].words, dist[len(dist)-1].words
	target := int(float64(n)*meanWords + 0.5)
	for total != target {
		i := src.IntN(n)
		switch {
		case total < target && counts[i] < maxWords:
			counts[i]++
			total++
		case total > target && counts[i] > minWords:
			counts[i]--
			total--
		}
	}

	commands := make([]string, n)
	for i, w := range counts {
		commands[i] = phrase(w, src)
	}
	return Corpus{Name: name, Commands: commands}
}

// sampleCount draws one word count from the distribution.
func sampleCount(dist countDist, src *rng.Source) int {
	var sum float64
	for _, d := range dist {
		sum += d.weight
	}
	r := src.Uniform(0, sum)
	for _, d := range dist {
		r -= d.weight
		if r < 0 {
			return d.words
		}
	}
	return dist[len(dist)-1].words
}

// Word pools for assembling plausible commands.
var (
	verbs     = []string{"turn", "set", "play", "dim", "start", "stop", "open", "lock", "check", "show"}
	particles = []string{"on", "off", "up", "down"}
	objects   = []string{"the lights", "the thermostat", "a timer", "the music", "the front door", "the alarm", "the tv", "the fan", "the heater", "my schedule"}
	places    = []string{"in the kitchen", "in the living room", "in the bedroom", "upstairs", "downstairs", "in the office"}
	extras    = []string{"please", "right now", "for ten minutes", "at seven tonight", "before I leave", "when I get home", "every weekday morning"}
)

// phrase assembles a command with exactly words words.
func phrase(words int, src *rng.Source) string {
	parts := []string{rng.Pick(src, verbs)}
	pools := [][]string{particles, objects, places, extras, extras}
	pi := 0
	for countWords(parts) < words && pi < len(pools) {
		parts = append(parts, rng.Pick(src, pools[pi]))
		pi++
	}
	// Trim or pad word by word to hit the exact count.
	flat := strings.Fields(strings.Join(parts, " "))
	for len(flat) > words {
		flat = flat[:len(flat)-1]
	}
	for len(flat) < words {
		flat = append(flat, rng.Pick(src, []string{"please", "now", "today", "tonight", "again"}))
	}
	return strings.Join(flat, " ")
}

func countWords(parts []string) int {
	n := 0
	for _, p := range parts {
		n += len(strings.Fields(p))
	}
	return n
}

// WordCounts returns the word count of each command.
func (c Corpus) WordCounts() []int {
	out := make([]int, len(c.Commands))
	for i, cmd := range c.Commands {
		out[i] = len(strings.Fields(cmd))
	}
	return out
}

// MeanWords returns the mean command word count.
func (c Corpus) MeanWords() float64 {
	counts := c.WordCounts()
	if len(counts) == 0 {
		return 0
	}
	sum := 0
	for _, n := range counts {
		sum += n
	}
	return float64(sum) / float64(len(counts))
}

// FractionAtLeast returns the fraction of commands with at least n
// words.
func (c Corpus) FractionAtLeast(n int) float64 {
	counts := c.WordCounts()
	if len(counts) == 0 {
		return 0
	}
	hits := 0
	for _, w := range counts {
		if w >= n {
			hits++
		}
	}
	return float64(hits) / float64(len(counts))
}

// SpeakDuration returns how long a command takes to say at the
// paper's 2-words-per-second pace.
func SpeakDuration(command string) time.Duration {
	words := wordCount(command)
	return time.Duration(float64(words) / WordsPerSecond * float64(time.Second))
}

// wordCount is len(strings.Fields(s)) without building the fields:
// it counts the runs of non-space runes.
func wordCount(s string) int {
	n, inWord := 0, false
	for _, r := range s {
		space := unicode.IsSpace(r)
		if !space && !inWord {
			n++
		}
		inWord = !space
	}
	return n
}

// NoDelayFraction returns the fraction of commands whose spoken
// duration covers the given verification time — Fig. 6 case (a),
// where the RSSI query finishes while the user is still speaking and
// the user perceives no delay.
func (c Corpus) NoDelayFraction(verification time.Duration) float64 {
	if len(c.Commands) == 0 {
		return 0
	}
	hits := 0
	for _, cmd := range c.Commands {
		if SpeakDuration(cmd) >= verification {
			hits++
		}
	}
	return float64(hits) / float64(len(c.Commands))
}

// PerceivedDelay returns the delay the user experiences for a command
// given the verification time — zero when verification completes
// while speaking (Fig. 6 case a), the remainder otherwise (case b).
func PerceivedDelay(command string, verification time.Duration) time.Duration {
	speak := SpeakDuration(command)
	if verification <= speak {
		return 0
	}
	return verification - speak
}
