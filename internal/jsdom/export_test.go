package jsdom

import "fmt"

// Reseal drops d's seal and seals it again, as the first exposure does.
func (d *DOM) Reseal() {
	d.seal = nil
	d.expose()
}

// StampState describes a fresh stamp of cfg's realm template: its graph
// digest, object counters and host-held state.
func StampState(cfg Config) string {
	d := Build(cfg, &NopHost{}, "https://state.test/")
	held, err := d.It.RunScript(hostHeld, "state.js")
	if err != nil {
		return err.Error()
	}
	return fmt.Sprintf("%x %v %s", d.It.GraphDigest(), d.It.Counters(), held.ToString())
}
