package corpus

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"
)

// Golden digests of the synthetic corpora. Both are pure functions of
// fixed seeds; computing them once per process must not change a
// single command.
const (
	goldenAlexa  = "a041a789c7f3a922f7205721603ce13e100644dfb2b6bced4478f0d91c7b9072"
	goldenGoogle = "f398a0dda8573a3234735b3e09513705668f0889796fa6680998f5fb021997d5"
)

func corpusDigest(c Corpus) string {
	h := sha256.New()
	var buf [8]byte
	str := func(s string) {
		binary.BigEndian.PutUint64(buf[:], uint64(len(s)))
		h.Write(buf[:])
		h.Write([]byte(s))
	}
	str(c.Name)
	binary.BigEndian.PutUint64(buf[:], uint64(len(c.Commands)))
	h.Write(buf[:])
	for _, cmd := range c.Commands {
		str(cmd)
	}
	return hex.EncodeToString(h.Sum(nil))
}

func TestCorpusGoldenDigests(t *testing.T) {
	for _, c := range []struct {
		corpus Corpus
		want   string
	}{
		{Alexa(), goldenAlexa},
		{Google(), goldenGoogle},
	} {
		if got := corpusDigest(c.corpus); got != c.want {
			t.Errorf("%s corpus digest = %s, want %s", c.corpus.Name, got, c.want)
		}
	}
}
