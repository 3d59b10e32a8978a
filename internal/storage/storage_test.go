package storage

import (
	"math"
	"testing"
)

const netCap = 2.37 * mbps // the 20 Mbps ceiling observed in Table 2

// newifi and hiwifi run MT7620A @ 580 MHz; miwifi a Broadcom 4709 @ 1 GHz.
var (
	slowAP = WriteModel{CPUGHz: 0.58}
	fastAP = WriteModel{CPUGHz: 1.0}
)

// table2 lists every populated cell of Table 2: the configuration, the AP
// model, the published max pre-downloading speed (MBps) and iowait ratio.
var table2 = []struct {
	name   string
	m      WriteModel
	dev    Device
	speed  float64
	iowait float64
}{
	{"hiwifi sd fat", slowAP, Device{SDCard, FAT}, 2.37, 0.421},
	{"miwifi sata ext4", fastAP, Device{SATAHDD, EXT4}, 2.37, 0.297},
	{"newifi flash fat", slowAP, Device{USBFlash, FAT}, 2.12, 0.663},
	{"newifi flash ntfs", slowAP, Device{USBFlash, NTFS}, 0.93, 0.151},
	{"newifi flash ext4", slowAP, Device{USBFlash, EXT4}, 2.13, 0.55},
	{"newifi uhdd fat", slowAP, Device{USBHDD, FAT}, 2.37, 0.42},
	{"newifi uhdd ntfs", slowAP, Device{USBHDD, NTFS}, 1.13, 0.098},
	{"newifi uhdd ext4", slowAP, Device{USBHDD, EXT4}, 2.37, 0.174},
}

// Table 2 reproduction: max speeds within 10 % and iowait within 5
// percentage points of the published values.
func TestTable2MaxSpeeds(t *testing.T) {
	for _, c := range table2 {
		got := c.m.MaxSpeed(c.dev, netCap) / mbps
		if math.Abs(got-c.speed)/c.speed > 0.10 {
			t.Errorf("%s: max speed = %.2f MBps, want %.2f", c.name, got, c.speed)
		}
	}
}

func TestTable2IOWait(t *testing.T) {
	for _, c := range table2 {
		rate := c.m.MaxSpeed(c.dev, netCap)
		got := c.m.IOWait(c.dev, rate)
		if math.Abs(got-c.iowait) > 0.05 {
			t.Errorf("%s: iowait = %.3f, want %.3f", c.name, got, c.iowait)
		}
	}
}

// The paper's qualitative findings about the write path.
func TestNTFSSeverelySlowerOnNewifi(t *testing.T) {
	ntfs := slowAP.MaxSpeed(Device{USBFlash, NTFS}, netCap)
	fat := slowAP.MaxSpeed(Device{USBFlash, FAT}, netCap)
	ext4 := slowAP.MaxSpeed(Device{USBFlash, EXT4}, netCap)
	if ntfs >= fat/2 || ntfs >= ext4/2 {
		t.Errorf("NTFS (%.2f) should be less than half of FAT (%.2f) / EXT4 (%.2f)",
			ntfs/mbps, fat/mbps, ext4/mbps)
	}
}

func TestUSBHDDBeatsFlashUnderNTFS(t *testing.T) {
	flash := slowAP.MaxSpeed(Device{USBFlash, NTFS}, netCap)
	hdd := slowAP.MaxSpeed(Device{USBHDD, NTFS}, netCap)
	if hdd <= flash {
		t.Errorf("USB HDD NTFS (%.2f) should beat USB flash NTFS (%.2f)",
			hdd/mbps, flash/mbps)
	}
}

func TestNTFSIsCPUBound(t *testing.T) {
	// NTFS: low iowait despite low speed (CPU-bound in FUSE).
	for _, dt := range []DeviceType{USBFlash, USBHDD} {
		d := Device{dt, NTFS}
		rate := slowAP.MaxSpeed(d, netCap)
		if w := slowAP.IOWait(d, rate); w > 0.25 {
			t.Errorf("%s: NTFS iowait = %.3f, should be low (CPU-bound)", d, w)
		}
	}
}

func TestFlashIsDeviceBoundOnFATAndEXT4(t *testing.T) {
	for _, fs := range []Filesystem{FAT, EXT4} {
		d := Device{USBFlash, fs}
		rate := slowAP.MaxSpeed(d, netCap)
		if w := slowAP.IOWait(d, rate); w < 0.4 {
			t.Errorf("%s: iowait = %.3f, should be high (device-bound)", d, w)
		}
	}
}

func TestFasterCPULiftsNTFS(t *testing.T) {
	slow := slowAP.Throughput(Device{USBHDD, NTFS})
	fast := fastAP.Throughput(Device{USBHDD, NTFS})
	if fast <= slow {
		t.Error("faster CPU should lift the CPU-bound NTFS pipeline")
	}
	// And by roughly the clock ratio, since NTFS is CPU-dominated.
	if fast/slow < 1.3 {
		t.Errorf("NTFS speedup %.2f too small for a 1.72x clock boost", fast/slow)
	}
}

func TestIOWaitScalesWithRate(t *testing.T) {
	d := Device{USBFlash, EXT4}
	half := slowAP.IOWait(d, slowAP.Throughput(d)/2)
	full := slowAP.IOWait(d, slowAP.Throughput(d))
	if math.Abs(half*2-full) > 1e-9 {
		t.Errorf("iowait not linear in rate: half=%.4f full=%.4f", half, full)
	}
}

func TestIOWaitClipsAtSustainableRate(t *testing.T) {
	d := Device{USBFlash, NTFS}
	atMax := slowAP.IOWait(d, slowAP.Throughput(d))
	beyond := slowAP.IOWait(d, 100*mbps)
	if beyond != atMax {
		t.Errorf("iowait beyond capacity (%.4f) should equal at-capacity (%.4f)",
			beyond, atMax)
	}
	if beyond > 1 {
		t.Error("iowait above 1")
	}
}

func TestIOWaitZeroAtZeroRate(t *testing.T) {
	if w := slowAP.IOWait(Device{USBFlash, FAT}, 0); w != 0 {
		t.Errorf("iowait at zero rate = %g", w)
	}
}

func TestMaxSpeedUnconstrainedNetwork(t *testing.T) {
	d := Device{SATAHDD, EXT4}
	if got, want := fastAP.MaxSpeed(d, 0), fastAP.Throughput(d); got != want {
		t.Errorf("netCap<=0 should mean unconstrained: %g vs %g", got, want)
	}
}

func TestValidatePanics(t *testing.T) {
	cases := []struct {
		m WriteModel
		d Device
	}{
		{WriteModel{}, Device{USBFlash, FAT}},              // zero CPU
		{WriteModel{CPUGHz: 1}, Device{deviceCount, FAT}},  // bad device
		{WriteModel{CPUGHz: 1}, Device{USBFlash, fsCount}}, // bad fs
	}
	for i, c := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			c.m.Throughput(c.d)
		}()
	}
}

func TestRecommendedUpgrade(t *testing.T) {
	cases := []struct {
		in      Device
		want    Device
		changed bool
	}{
		{Device{USBFlash, NTFS}, Device{USBHDD, EXT4}, true},
		{Device{USBFlash, FAT}, Device{USBHDD, FAT}, true},
		{Device{USBHDD, NTFS}, Device{USBHDD, EXT4}, true},
		{Device{USBHDD, EXT4}, Device{USBHDD, EXT4}, false},
		{Device{SATAHDD, EXT4}, Device{SATAHDD, EXT4}, false},
		{Device{SDCard, FAT}, Device{SDCard, FAT}, false},
	}
	for _, c := range cases {
		got, changed := RecommendedUpgrade(c.in)
		if got != c.want || changed != c.changed {
			t.Errorf("RecommendedUpgrade(%v) = %v,%v want %v,%v",
				c.in, got, changed, c.want, c.changed)
		}
	}
	// The upgrade must never make the pipeline slower.
	for dt := DeviceType(0); dt < deviceCount; dt++ {
		for fs := Filesystem(0); fs < fsCount; fs++ {
			d := Device{dt, fs}
			up, changed := RecommendedUpgrade(d)
			if changed && slowAP.Throughput(up) <= slowAP.Throughput(d) {
				t.Errorf("upgrade %v -> %v did not improve throughput", d, up)
			}
		}
	}
}

func TestParseRoundTrips(t *testing.T) {
	for d := DeviceType(0); d < deviceCount; d++ {
		back, err := ParseDeviceType(d.String())
		if err != nil || back != d {
			t.Errorf("device %v round trip failed", d)
		}
	}
	for f := Filesystem(0); f < fsCount; f++ {
		back, err := ParseFilesystem(f.String())
		if err != nil || back != f {
			t.Errorf("fs %v round trip failed", f)
		}
	}
	if _, err := ParseDeviceType("floppy"); err == nil {
		t.Error("ParseDeviceType accepted junk")
	}
	if _, err := ParseFilesystem("zfs"); err == nil {
		t.Error("ParseFilesystem accepted junk")
	}
}

func TestIsFlash(t *testing.T) {
	if !SDCard.IsFlash() || !USBFlash.IsFlash() {
		t.Error("SD and USB flash are flash media")
	}
	if USBHDD.IsFlash() || SATAHDD.IsFlash() {
		t.Error("HDDs are not flash media")
	}
}
