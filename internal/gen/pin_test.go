package gen

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"repro/internal/core"
	"repro/internal/grammars"
	"repro/internal/lalrtable"
	"repro/internal/lr0"
)

// generatedSHA pins the SHA-256 of Generate's output for every corpus
// grammar.  Generate refuses tables with unresolved conflicts; for
// those grammars the pin covers the refusal's text instead.
var generatedSHA = map[string]string{
	"ada":           "3316065ae9e5071e0a4c3048a5773623e1e9fadb37d39fbf436e6b9e6f08ae5c",
	"algol":         "d9c2cb01d8a535fb03f6281bac03eb5b71ebbe16480e779eeb81ff929078f435",
	"assignment":    "f1f5cc7490c503925f55403fd64e16e89b34609b3c8b8cd2a31a57f7a141d8a4",
	"csub":          "9c81c55e3bd98218d1006d8a1ee8af4f9012d7801383b5c201fdc2828236ded3",
	"dangling-else": "9c81c55e3bd98218d1006d8a1ee8af4f9012d7801383b5c201fdc2828236ded3",
	"expr":          "e7168190fe124a87ada9cc45d6add967c76bf30d7e636235aa04cf191445d87a",
	"expr-prec":     "0ad05c4d565eb12ceec12bee07dadc6a603a622792f461e42f20b5b43ccc6d6a",
	"fortran":       "99e9b7c269c936620be917eea4a1bb130f47eadd3dbb1050f98138e2c4cc1909",
	"json":          "d1668c4db992592edf7a563b58b15a16f26306ab090efa91627563c2c22a0f8f",
	"lua":           "08302551694f0847354f1118e3473d60782049d0d0876befdb3337ee481c8bce",
	"not-lalr":      "17933a593e05f196238a74d6c5c11d3d30940a9708a6cd55e6629a8df296f421",
	"oberon":        "057b69215a51861a585f45a9a8697991c2f18b9da9277d765fbf3905226b2881",
	"pascal":        "9c81c55e3bd98218d1006d8a1ee8af4f9012d7801383b5c201fdc2828236ded3",
	"pli":           "9c81c55e3bd98218d1006d8a1ee8af4f9012d7801383b5c201fdc2828236ded3",
	"sql":           "f6e81fc267f59ba18dadd31b1be25d2daa4885aa0fdb5544cbcefa81bb6fabc8",
}

// TestCorpusGeneratedCodePinned is an exact gate on the emitted parser:
// tables, runtime and identifiers, byte for byte, across the corpus.
func TestCorpusGeneratedCodePinned(t *testing.T) {
	for _, e := range grammars.All() {
		a := lr0.New(grammars.MustLoad(e.Name), nil)
		code, err := Generate(lalrtable.Build(a, core.Compute(a).Sets()), Options{Package: "p"})
		if err != nil {
			code = []byte("error: " + err.Error())
		}
		sum := sha256.Sum256(code)
		got := hex.EncodeToString(sum[:])
		if want, ok := generatedSHA[e.Name]; !ok || got != want {
			t.Errorf("%s: sha256(Generate) = %q, want %q", e.Name, got, want)
		}
	}
	if len(generatedSHA) != len(grammars.All()) {
		t.Errorf("%d pins for %d corpus grammars", len(generatedSHA), len(grammars.All()))
	}
}
