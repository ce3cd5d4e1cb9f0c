package jsdom

// Reseal drops d's seal and seals it again, as the first exposure does.
func (d *DOM) Reseal() {
	d.seal = nil
	d.expose()
}
