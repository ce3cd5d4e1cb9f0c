package faults

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"gullible/internal/httpsim"
)

// okTransport serves 200s with a fixed body.
type okTransport struct{ calls int }

func (t *okTransport) RoundTrip(req *httpsim.Request) (*httpsim.Response, error) {
	t.calls++
	return &httpsim.Response{Status: 200, Headers: map[string]string{"Content-Type": "text/html"}, Body: "<html>page body content</html>"}, nil
}

func onlyKind(k Kind, perMille int, p *Profile) {
	b := Bucket{MaxRank: 0}
	switch k {
	case KindTransport:
		b.TransportPerMille = perMille
	case KindMalformed:
		b.MalformedPerMille = perMille
	case KindTarpit:
		b.TarpitPerMille = perMille
	case KindHang:
		b.HangPerMille = perMille
	case KindCrash:
		b.CrashPerMille = perMille
	}
	p.Buckets = []Bucket{b}
}

func TestClassify(t *testing.T) {
	cases := []struct {
		err  error
		want Class
	}{
		{nil, ClassNone},
		{errors.New("connection reset"), ClassTransient}, // unknown ⇒ transient
		{&FaultError{Kind: KindTransport}, ClassTransient},
		{&FaultError{Kind: KindMalformed}, ClassTransient},
		{&FaultError{Kind: KindHang}, ClassHang},
		{&FaultError{Kind: KindCrash}, ClassCrash},
		{Permanentf("bad url"), ClassPermanent},
		{fmt.Errorf("wrapped: %w", Permanentf("bad url")), ClassPermanent},
		{fmt.Errorf("wrapped: %w", &FaultError{Kind: KindCrash}), ClassCrash},
	}
	for _, c := range cases {
		if got := Classify(c.err); got != c.want {
			t.Errorf("Classify(%v) = %v, want %v", c.err, got, c.want)
		}
	}
}

func TestFaultErrorAbortSemantics(t *testing.T) {
	for _, k := range []Kind{KindTransport, KindMalformed, KindTarpit} {
		if (&FaultError{Kind: k}).AbortsVisit() {
			t.Errorf("%s must not abort the visit", k)
		}
	}
	for _, k := range []Kind{KindHang, KindCrash} {
		if !(&FaultError{Kind: k}).AbortsVisit() {
			t.Errorf("%s must abort the visit", k)
		}
	}
}

func TestBucketSelection(t *testing.T) {
	p := Profile{Buckets: []Bucket{
		{MaxRank: 100, TransportPerMille: 1},
		{MaxRank: 1000, TransportPerMille: 2},
		{MaxRank: 0, TransportPerMille: 3},
	}}
	for rank, want := range map[int]int{1: 1, 100: 1, 101: 2, 1000: 2, 1001: 3, 0: 3} {
		if got := p.bucketFor(rank).TransportPerMille; got != want {
			t.Errorf("bucketFor(%d) = bucket %d, want %d", rank, got, want)
		}
	}
}

func TestTransientFaultRecoversAfterRetry(t *testing.T) {
	p := DefaultProfile()
	onlyKind(KindTransport, 1000, &p) // every request
	p.TransientRecoverAfter = 1
	in := NewInjector(7, p, &okTransport{})
	req := &httpsim.Request{URL: "https://a.example/x.js", TopURL: "https://a.example/", Type: httpsim.TypeScript}

	if _, err := in.RoundTrip(req); err == nil {
		t.Fatal("first attempt should fail")
	} else if Classify(err) != ClassTransient {
		t.Fatalf("wrong class: %v", err)
	}
	if resp, err := in.RoundTrip(req); err != nil || resp.Status != 200 {
		t.Fatalf("second attempt should recover: %v", err)
	}
}

func TestHangNeverRecoversWhenConfigured(t *testing.T) {
	p := DefaultProfile()
	onlyKind(KindHang, 1000, &p)
	p.HangRecoverAfter = 0 // never clears
	p.HangSeconds = 123
	in := NewInjector(7, p, &okTransport{})
	req := &httpsim.Request{URL: "https://a.example/", TopURL: "https://a.example/", Type: httpsim.TypeMainFrame}
	for i := 0; i < 3; i++ {
		_, err := in.RoundTrip(req)
		var fe *FaultError
		if !errors.As(err, &fe) || fe.Kind != KindHang {
			t.Fatalf("attempt %d: want hang, got %v", i, err)
		}
		if fe.VirtualCost() != 123 {
			t.Fatalf("hang cost = %v", fe.VirtualCost())
		}
	}
}

func TestCrashArmsOnMainFrameAndFiresOnSubresource(t *testing.T) {
	p := DefaultProfile()
	onlyKind(KindCrash, 1000, &p)
	p.CrashRecoverAfter = 1
	in := NewInjector(7, p, &okTransport{})
	main := &httpsim.Request{URL: "https://a.example/", TopURL: "https://a.example/", Type: httpsim.TypeMainFrame}
	if _, err := in.RoundTrip(main); err != nil {
		t.Fatalf("main document itself must load: %v", err)
	}
	// the crash fires within the next few subresource fetches
	crashed := false
	for i := 0; i < 5 && !crashed; i++ {
		sub := &httpsim.Request{URL: fmt.Sprintf("https://a.example/r%d.js", i), TopURL: "https://a.example/", Type: httpsim.TypeScript}
		if _, err := in.RoundTrip(sub); err != nil {
			if Classify(err) != ClassCrash {
				t.Fatalf("wrong class: %v", err)
			}
			crashed = true
		}
	}
	if !crashed {
		t.Fatal("armed crash never fired")
	}
	// retry: the crash has recovered, the full visit completes
	if _, err := in.RoundTrip(main); err != nil {
		t.Fatalf("retry main: %v", err)
	}
	for i := 0; i < 5; i++ {
		sub := &httpsim.Request{URL: fmt.Sprintf("https://a.example/r%d.js", i), TopURL: "https://a.example/", Type: httpsim.TypeScript}
		if _, err := in.RoundTrip(sub); err != nil {
			t.Fatalf("retry subresource %d: %v", i, err)
		}
	}
	if in.Counts()[KindCrash] != 1 {
		t.Fatalf("crash count = %d, want 1", in.Counts()[KindCrash])
	}
}

func TestTarpitDelaysResponse(t *testing.T) {
	p := DefaultProfile()
	onlyKind(KindTarpit, 1000, &p)
	p.TarpitSeconds = 45
	in := NewInjector(7, p, &okTransport{})
	req := &httpsim.Request{URL: "https://a.example/", TopURL: "https://a.example/", Type: httpsim.TypeMainFrame}
	resp, err := in.RoundTrip(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.DelaySeconds != 45 {
		t.Fatalf("DelaySeconds = %v, want 45", resp.DelaySeconds)
	}
}

func TestMalformedBodyTruncatedDeterministically(t *testing.T) {
	p := DefaultProfile()
	onlyKind(KindMalformed, 1000, &p)
	req := &httpsim.Request{URL: "https://a.example/x.js", TopURL: "https://a.example/", Type: httpsim.TypeScript}
	a, err := NewInjector(7, p, &okTransport{}).RoundTrip(req)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := NewInjector(7, p, &okTransport{}).RoundTrip(req)
	orig, _ := (&okTransport{}).RoundTrip(req)
	if a.Body == orig.Body {
		t.Fatal("body was not garbled")
	}
	if a.Body != b.Body {
		t.Fatalf("same seed produced different bodies: %q vs %q", a.Body, b.Body)
	}
	// the original response must not be mutated in place
	if orig2, _ := (&okTransport{}).RoundTrip(req); orig2.Body != orig.Body {
		t.Fatal("upstream response mutated")
	}
}

func TestStorageFaultDeterministic(t *testing.T) {
	p := DefaultProfile()
	p.StoragePerMille = 200
	seq := func() []bool {
		in := NewInjector(11, p, &okTransport{})
		var out []bool
		for i := 0; i < 200; i++ {
			out = append(out, in.StorageFault("javascript"))
		}
		return out
	}
	a, b := seq(), seq()
	drops := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("storage fault sequence diverged at %d", i)
		}
		if a[i] {
			drops++
		}
	}
	if drops == 0 || drops == len(a) {
		t.Fatalf("implausible drop count %d/%d", drops, len(a))
	}
}

func TestInjectorDeterministicAcrossRuns(t *testing.T) {
	p := DefaultProfile()
	run := func() (string, map[Kind]int) {
		in := NewInjector(3, p, &okTransport{})
		trace := ""
		for site := 0; site < 40; site++ {
			top := fmt.Sprintf("https://site%d.example/", site)
			reqs := []*httpsim.Request{{URL: top, TopURL: top, Type: httpsim.TypeMainFrame}}
			for r := 0; r < 6; r++ {
				reqs = append(reqs, &httpsim.Request{URL: fmt.Sprintf("%sr%d.js", top, r), TopURL: top, Type: httpsim.TypeScript})
			}
			for _, req := range reqs {
				resp, err := in.RoundTrip(req)
				switch {
				case err != nil:
					trace += "E"
				case resp.DelaySeconds > 0:
					trace += "D"
				case len(resp.Body) != len("<html>page body content</html>"):
					trace += "M"
				default:
					trace += "."
				}
			}
		}
		return trace, in.Counts()
	}
	t1, c1 := run()
	t2, c2 := run()
	if t1 != t2 {
		t.Fatalf("fault traces differ:\n%s\n%s", t1, t2)
	}
	if fmt.Sprint(c1) != fmt.Sprint(c2) {
		t.Fatalf("counts differ: %v vs %v", c1, c2)
	}
	kinds := 0
	for _, n := range c1 {
		if n > 0 {
			kinds++
		}
	}
	if kinds < 2 {
		t.Fatalf("default profile injected only %d kinds over the trace: %v", kinds, c1)
	}
}

func TestProfileNamed(t *testing.T) {
	if p, err := ProfileNamed("off"); p != nil || err != nil {
		t.Fatalf(`ProfileNamed("off") = %v, %v; want nil, nil`, p, err)
	}
	for name, want := range map[string]Profile{"default": DefaultProfile(), "heavy": HeavyProfile()} {
		p, err := ProfileNamed(name)
		if err != nil || p == nil || !reflect.DeepEqual(*p, want) {
			t.Fatalf("ProfileNamed(%q) = %v, %v", name, p, err)
		}
	}
	_, err := ProfileNamed("catastrophic")
	if err == nil {
		t.Fatal("unknown profile name accepted")
	}
	for _, name := range []string{"off", "default", "heavy"} {
		if !strings.Contains(err.Error(), name) {
			t.Fatalf("error %q does not list valid name %q", err, name)
		}
	}
}
