package lint

import (
	"bytes"
	"flag"
	"os"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite golden output files")

func runMain(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errOut bytes.Buffer
	code = Main(args, &out, &errOut)
	return code, out.String(), errOut.String()
}

// TestDriverExitCodes pins the CLI contract scripts build on: 0 clean,
// 1 findings, 2 usage, 3 load failure. A linter that cannot load its target
// must not look clean OR look like a usage mistake, and a flag that no longer
// exists must fail loudly instead of silently linting something else.
func TestDriverExitCodes(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want int
	}{
		{"clean", []string{"cfg"}, 0},
		{"findings", []string{"testdata/src/bad"}, 1},
		{"unknown format", []string{"-format", "yaml", "cfg"}, 2},
		{"removed -fix", []string{"-fix", "cfg"}, 2},
		{"removed -baseline", []string{"-baseline", "x.json", "cfg"}, 2},
		{"removed json format", []string{"-format", "json", "cfg"}, 2},
		{"removed -rules", []string{"-rules", "wallclock", "cfg"}, 2},
		{"removed -tests", []string{"-tests", "cfg"}, 2},
		{"missing package", []string{"testdata/src/no-such-pkg"}, 3},
		{"missing pattern root", []string{"testdata/src/no-such-pkg/..."}, 3},
		{"go-free directory", []string{"testdata"}, 3},
		{"pattern matching no package", []string{"testdata/golden/..."}, 3},
	}
	for _, c := range cases {
		code, _, errOut := runMain(t, c.args...)
		if code != c.want {
			t.Errorf("%s: exit %d, want %d (stderr: %s)", c.name, code, c.want, errOut)
		}
	}
}

// TestGoldenOutput locks the SARIF output byte-for-byte against its committed
// golden (regenerate with `go test -run TestGoldenOutput -update`).
// The SARIF golden doubles as the schema reference verify.sh smokes against.
func TestGoldenOutput(t *testing.T) {
	const golden = "testdata/golden/bad.sarif"
	code, out, errOut := runMain(t, "-format", "sarif", "testdata/src/bad")
	if code != 1 {
		t.Fatalf("exit %d, want 1 (stderr: %s)", code, errOut)
	}
	if *updateGolden {
		if err := os.WriteFile(golden, []byte(out), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to generate)", err)
	}
	if out != string(want) {
		t.Errorf("output drifted from %s (run with -update after a deliberate change)\ngot:\n%s", golden, out)
	}
}
