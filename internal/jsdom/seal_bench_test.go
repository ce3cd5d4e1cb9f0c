package jsdom_test

import (
	"testing"

	"gullible/internal/browser"
	"gullible/internal/jsdom"
	"gullible/internal/openwpm"
)

type namedRealm struct {
	name string
	d    *jsdom.DOM
}

// sealRealms returns a freshly built realm, the kind a page exposes before
// its install tick, and one the vanilla instrument was installed into.
func sealRealms(b *testing.B) []namedRealm {
	cfg := jsdom.StandardConfig(jsdom.Ubuntu, jsdom.Regular, 90, 0)
	fresh := jsdom.Build(cfg, &jsdom.NopHost{}, "https://frame.example/")
	inst := jsdom.Build(cfg, &jsdom.NopHost{}, "https://frame.example/")
	ji := &openwpm.JSInstrument{HoneyProps: openwpm.HoneyNames("bench", 4)}
	ji.OnWindow(browser.New(browser.Options{Config: cfg, ClientID: "bench"}), openwpm.NewStorage(), inst, true)
	if err := ji.TopInstallError(); err != nil {
		b.Fatal(err)
	}
	return []namedRealm{{"fresh", fresh}, {"instrumented", inst}}
}

// BenchmarkSeal is the cost of a realm's first exposure: one walk that
// collects the write counter of every reachable object and scope.
func BenchmarkSeal(b *testing.B) {
	for _, r := range sealRealms(b) {
		b.Run(r.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				r.d.Reseal()
			}
		})
	}
}

// BenchmarkUntouched is the cost of the install tick's check on an exposed
// realm: a comparison of the sealed counters, no walk.
func BenchmarkUntouched(b *testing.B) {
	for _, r := range sealRealms(b) {
		b.Run(r.name, func(b *testing.B) {
			r.d.Reseal()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if !r.d.Untouched() {
					b.Fatal("a sealed realm nothing wrote to is touched")
				}
			}
		})
	}
}

// BenchmarkGraphDigest is the baseline the seal replaced: the old seal and
// the old check each took one digest of the realm.
func BenchmarkGraphDigest(b *testing.B) {
	for _, r := range sealRealms(b) {
		b.Run(r.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				r.d.It.GraphDigest()
			}
		})
	}
}
