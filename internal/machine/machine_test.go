package machine

import "testing"

func TestTableIIValues(t *testing.T) {
	// Structural facts transcribed from the paper's Table II.
	cases := []struct {
		m                *Machine
		nodes, mem       int
		sockets, perSock int
		clock            float64
		net, mpi         string
	}{
		{JaguarPF(), 18688, 16, 2, 6, 2.6, "Cray SeaStar 2+", "Cray MPT 4.0.0"},
		{HopperII(), 6392, 32, 2, 12, 2.1, "Cray Gemini", "Cray MPT 5.1.3"},
		{Lens(), 31, 64, 4, 4, 2.3, "DDR Infiniband", "OpenMPI 1.3.3"},
		{Yona(), 16, 32, 2, 6, 2.6, "QDR Infiniband", "OpenMPI 1.7a1"},
	}
	for _, c := range cases {
		if c.m.Nodes != c.nodes {
			t.Errorf("%s nodes = %d, want %d", c.m.Name, c.m.Nodes, c.nodes)
		}
		if c.m.Node.MemoryGB != c.mem {
			t.Errorf("%s memory = %d, want %d", c.m.Name, c.m.Node.MemoryGB, c.mem)
		}
		if c.m.Node.Sockets != c.sockets || c.m.Node.CoresPerSocket != c.perSock {
			t.Errorf("%s sockets %dx%d, want %dx%d", c.m.Name,
				c.m.Node.Sockets, c.m.Node.CoresPerSocket, c.sockets, c.perSock)
		}
		if c.m.Node.ClockGHz != c.clock {
			t.Errorf("%s clock = %v, want %v", c.m.Name, c.m.Node.ClockGHz, c.clock)
		}
		if c.m.Net.Name != c.net {
			t.Errorf("%s interconnect = %s, want %s", c.m.Name, c.m.Net.Name, c.net)
		}
		if c.m.MPIName != c.mpi {
			t.Errorf("%s MPI = %s, want %s", c.m.Name, c.m.MPIName, c.mpi)
		}
	}
}

func TestThreadChoicesMatchPaper(t *testing.T) {
	// §V-A/§V-B: the thread counts measured per machine.
	want := map[string][]int{
		"JaguarPF":  {1, 2, 3, 6, 12},
		"Hopper II": {1, 2, 3, 6, 12, 24},
		"Lens":      {1, 2, 4, 8, 16},
		"Yona":      {1, 2, 3, 6, 12},
	}
	for _, m := range All() {
		w := want[m.Name]
		if len(m.ThreadChoices) != len(w) {
			t.Fatalf("%s choices %v, want %v", m.Name, m.ThreadChoices, w)
		}
		for i := range w {
			if m.ThreadChoices[i] != w[i] {
				t.Fatalf("%s choices %v, want %v", m.Name, m.ThreadChoices, w)
			}
		}
		// Every choice divides the node's core count.
		for _, c := range m.ThreadChoices {
			if m.Node.Cores()%c != 0 {
				t.Fatalf("%s: %d threads does not divide %d cores", m.Name, c, m.Node.Cores())
			}
		}
	}
}

func TestNUMADomains(t *testing.T) {
	// Hopper II sockets hold two 6-core dies: four domains of six cores.
	hop := HopperII()
	if hop.Node.NUMADomains != 4 || hop.Node.CoresPerNUMADomain() != 6 {
		t.Fatalf("Hopper NUMA: %d domains of %d cores", hop.Node.NUMADomains, hop.Node.CoresPerNUMADomain())
	}
	jag := JaguarPF()
	if jag.Node.CoresPerNUMADomain() != 6 {
		t.Fatalf("JaguarPF NUMA domain = %d cores", jag.Node.CoresPerNUMADomain())
	}
}

func TestValidate(t *testing.T) {
	y := Yona()
	if err := y.Validate(12, 6); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	for _, bad := range []struct{ cores, threads int }{
		{0, 1}, {-1, 1}, {y.Cores() + 12, 1}, {12, 13}, {13, 2}, {12, 0},
	} {
		if err := y.Validate(bad.cores, bad.threads); err == nil {
			t.Fatalf("Validate(%d, %d) accepted", bad.cores, bad.threads)
		}
	}
}

func TestCoresPerGPUWithoutGPU(t *testing.T) {
	if JaguarPF().CoresPerGPU() != 0 {
		t.Fatal("GPU-less machine reports cores per GPU")
	}
}

func TestGPULinkFasterOnYona(t *testing.T) {
	// §III: Yona has "a faster PCIe bus".
	lens, yona := Lens(), Yona()
	if yona.GPU.Link.GBs <= lens.GPU.Link.GBs {
		t.Fatal("Yona PCIe should be faster than Lens")
	}
	if yona.GPU.Link.LatencySec >= lens.GPU.Link.LatencySec {
		t.Fatal("Yona PCIe latency should be lower than Lens")
	}
}

func TestPeakPerformanceOrdering(t *testing.T) {
	// §III: JaguarPF 2.3 PF peak, Hopper II almost 1.3 PF. Our calibrated
	// sustained rates are far below peak, but the machine sizes must give
	// JaguarPF the larger total capacity.
	jag, hop := JaguarPF(), HopperII()
	jagCap := float64(jag.Cores()) * jag.Node.StencilGFPerCore
	hopCap := float64(hop.Cores()) * hop.Node.StencilGFPerCore
	if jagCap <= hopCap {
		t.Fatalf("JaguarPF capacity %.0f <= Hopper %.0f", jagCap, hopCap)
	}
}
