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
	goldenAlexa  = "eef87de925095485da90fa9d6b74402dff38727fb50b2dac6d0d4f5c673ed1d1"
	goldenGoogle = "32e1a39a0e34e773f6234e8d3939a4e1ef9e254478467b53703f47eb284c0ede"
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
