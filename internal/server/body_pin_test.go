package server

import (
	"crypto/sha256"
	"encoding/hex"
	"net/http"
	"testing"

	"repro/internal/grammar"
	"repro/internal/grammars"
)

// analyzeBodySHA pins the SHA-256 of the canonical /v1/analyze body for
// every corpus grammar (sent as <name>.y) and for the cold-large
// synthetic families at their benchmark sizes (sent as their
// grammar.WriteYacc text).  Response bytes are a deterministic function
// of the request, so any change to analysis, tables, report or encoding
// that moves one byte fails here.
var analyzeBodySHA = map[string]string{
	"ada":                 "e575e9a011ee5be483b70a654f0bf0053a4595c1f7034df1fe1c856d159cbb70",
	"algol":               "714240cd10d8175b8a7af872b50ee2a073a812d44af543388a05123934803d59",
	"assignment":          "ac9df0da8fc4e6cbcf873fe88757ed18c9f08a641406ca72ada8dc27d54f675c",
	"csub":                "d3502f7f9a8292532db38cf727186df279afb10a16a4e4db5cb00289cf90cfcb",
	"dangling-else":       "3c0b00ca4bbe70177e73a8a6ee7e81293c83e74cbbf92d009644a72fb58c9ddc",
	"expr":                "e4e041f93e0f74a994b180eff9cf62b21dfb1567683146fbd344c8c1864d46d4",
	"expr-levels-100":     "93b1fe9dedf666064e8b7588e6dfc36899df5903931d0892f4cd462eadbec497",
	"expr-levels-200":     "158d0f19c81a09da86ef66195fd96e48779d0113d58d2cca8b5d65916750e770",
	"expr-prec":           "72d72ef0fc98c8bb6a856cc9f4d855eea9dd8fcfc62ccdd650af653e265b5935",
	"fortran":             "e518542106c5e707858652f645c38373d2b6d3e64a60c13d1f8965fdc9af3edf",
	"json":                "d20a022560362d4b0bbe678efbe64b029d0dd6ce76c366a4dc84cb2b29ac0a7a",
	"lua":                 "c1cddfc130d34c9aa518e2e8dbfcea6cbe8fe0197bc3cbe8ce7045822af5f10e",
	"not-lalr":            "14b050d0898d6eefac7314e57ace968c15533af8bac398ee0a4567997afb3a85",
	"nullable-chain-100":  "a54c733a74fe10e8f13e879ccabd1835a78e59572a4e580d9e97dc192f288bc4",
	"nullable-chain-150":  "c3007e1545f0cc86a32a41ab9c33300ae57f2e513140c288dc6e4fc3c95532b4",
	"nullable-chain-200":  "5254db3cce5e1fce6f0d5c94572317b6eb8a9b5e9faf35de827d1f078010c773",
	"oberon":              "61188a4afcfd26da98b6a24a5ceaa58b61850137833adf38826094a57302d743",
	"pascal":              "5d640bf3449e1358cbe0fec9f78dc8ee90d494688cc468f9397b29c46dab0905",
	"pli":                 "651334f860532cf43505572b111352292f11e406f7754eb2ecc5f03bf9cf73c2",
	"sql":                 "8bdc0a38b8d6b60cdeddae57f17d96b892b5fc2d2fabf5ec21757713eca32ca0",
	"unit-chain-1000":     "e16528df45a8c0619ca26f581841c7a397df79af217fe044dcefa45e82f8f50d",
	"unit-chain-4000":     "95b00bd14897d5aa5c06e70aeae228a5c010d462b01ac98af0ea89897881716d",
	"unit-chain-rev-1000": "37ce1147cbff08416b4db18212938d6f4f11b269e5b3f1a5c81a7c8d75ba2d8c",
	"unit-chain-rev-4000": "bbd5b8d038ddd1392af5c8be1191235706a68948746abb01b34eeb9bd6d44753",
}

func TestAnalyzeBodyPinned(t *testing.T) {
	srcs := map[string]string{}
	for _, e := range grammars.All() {
		srcs[e.Name] = e.Src
	}
	for _, g := range []*grammar.Grammar{
		grammars.UnitChain(1000), grammars.UnitChain(4000),
		grammars.UnitChainReversed(1000), grammars.UnitChainReversed(4000),
		grammars.NullableChain(100), grammars.NullableChain(150), grammars.NullableChain(200),
		grammars.ExprLevels(100), grammars.ExprLevels(200),
	} {
		srcs[g.Name()] = g.WriteYacc()
	}

	ts := newTestServer(t, Config{})
	for name, src := range srcs {
		resp, body := post(t, ts, "/v1/analyze", AnalyzeRequest{Grammar: src, Filename: name + ".y"})
		if resp.StatusCode != http.StatusOK {
			t.Errorf("%s: status %d: %.200s", name, resp.StatusCode, body)
			continue
		}
		sum := sha256.Sum256(body)
		got := hex.EncodeToString(sum[:])
		if want, ok := analyzeBodySHA[name]; !ok || got != want {
			t.Errorf("%s: sha256(body) = %q, want %q", name, got, want)
		}
	}
	if len(analyzeBodySHA) != len(srcs) {
		t.Errorf("%d pins for %d grammars", len(analyzeBodySHA), len(srcs))
	}
}
