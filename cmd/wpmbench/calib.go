package main

import (
	"sort"
	"strconv"
	"strings"
	"time"
)

// Machine-speed calibration (doc.go explains why). Every untraced round
// starts with a calibration pass that times refKernel in a child of its own.
// The run's slowdown is the median kernel time over refNominalS; the
// end-to-end timings are reported at nominal speed, rates multiplied by the
// slowdown and times divided by it. The unscaled values stay in the document
// as raw.<metric>, the slowdown as machine.slowdown.

// refNominalS is the reference kernel's nominal wall time: about its median
// on a 2-vCPU VM (Go 1.24.0) while the benchmark's bounds were measured.
const refNominalS = 0.70

// refChecksum is what refKernel returns; any other value means the kernel
// did not do its fixed work.
const refChecksum uint64 = 2813268310634142884

// refNode is a binary-tree node of the reference kernel.
type refNode struct {
	left, right *refNode
	v           int
}

func refTree(depth int) *refNode {
	if depth == 0 {
		return &refNode{v: 1}
	}
	return &refNode{left: refTree(depth - 1), right: refTree(depth - 1), v: depth}
}

func (n *refNode) sum() int {
	if n.left == nil {
		return n.v
	}
	return n.v + n.left.sum() + n.right.sum()
}

// refKernel is the reference work: a fixed sequence of tree builds, map
// inserts, string building and sorts, folded into a checksum. It is the
// benchmark's own code, so no change to the crawler moves it, and it
// exercises the allocator and the GC on one goroutine as a crawl's page
// execution does, so its time follows the machine's drift.
func refKernel() uint64 {
	var sum uint64
	for round := 0; round < 18; round++ {
		sum += uint64(refTree(16).sum())
		m := make(map[string][]int)
		keys := make([]string, 0, 50000)
		var b strings.Builder
		for j := 0; j < 50000; j++ {
			b.Reset()
			b.WriteString("k")
			b.WriteString(strconv.Itoa(j * 7919 % 100003))
			k := b.String()
			m[k] = append(m[k], j+round)
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys[:100] {
			sum = sum*31 + uint64(len(k)+m[k][0])
		}
		sum += uint64(len(m))
	}
	return sum
}

// runCalibrate is a calibration pass: the reference kernel, timed.
func runCalibrate(spec passSpec, execNS int64) (*passResult, error) {
	r := &passResult{Ops: 1}
	r.ready(spec, execNS)
	t0 := time.Now()
	sum := refKernel()
	r.WallS = time.Since(t0).Seconds()
	if sum != refChecksum {
		r.problemf("reference kernel checksum %d, want %d", sum, refChecksum)
	}
	return r, nil
}
