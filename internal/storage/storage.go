// Package storage models the smart-AP storage write path that the paper
// identifies as Bottleneck 4 (§5.2, Table 2): pre-downloading produces
// frequent, small data writes, and some storage devices (USB flash
// drives) and filesystems (NTFS under OpenWrt's FUSE driver) handle that
// pattern poorly, capping the achievable pre-downloading speed well below
// the network's.
//
// The model is a two-stage pipeline per written chunk:
//
//	t_cpu = filesystem CPU cost / AP CPU clock        (FS code, checksums)
//	t_dev = small-write device time + chunk/seq-BW    (seeks, erase blocks)
//
// Sustainable storage throughput is chunk/(t_cpu + t_dev); the observed
// pre-downloading speed is the minimum of that and the network ceiling,
// and the iowait ratio is the fraction of wall time spent in t_dev at the
// observed chunk rate. With the calibrated constants below this pipeline
// reproduces every populated cell of Table 2 within a few percent,
// including the two qualitative signatures: NTFS is CPU-bound (slow but
// low iowait) and flash media are device-bound on FAT/EXT4 (fast enough
// but high iowait).
package storage

import (
	"fmt"
	"math"
)

// DeviceType enumerates the storage devices benchmarked in the paper.
type DeviceType uint8

// Device types.
const (
	SDCard DeviceType = iota
	USBFlash
	USBHDD
	SATAHDD
	deviceCount
)

// String returns the device-type name.
func (d DeviceType) String() string {
	switch d {
	case SDCard:
		return "sd-card"
	case USBFlash:
		return "usb-flash"
	case USBHDD:
		return "usb-hdd"
	case SATAHDD:
		return "sata-hdd"
	}
	return fmt.Sprintf("device(%d)", uint8(d))
}

// ParseDeviceType converts a device-type name back to its enum value.
func ParseDeviceType(s string) (DeviceType, error) {
	for d := DeviceType(0); d < deviceCount; d++ {
		if d.String() == s {
			return d, nil
		}
	}
	return 0, fmt.Errorf("storage: unknown device type %q", s)
}

// IsFlash reports whether the device is flash media (no spindle, erase-
// block penalty on small in-place writes).
func (d DeviceType) IsFlash() bool { return d == SDCard || d == USBFlash }

// Filesystem enumerates the filesystems benchmarked in the paper.
type Filesystem uint8

// Filesystems.
const (
	FAT Filesystem = iota
	NTFS
	EXT4
	fsCount
)

// String returns the filesystem name.
func (f Filesystem) String() string {
	switch f {
	case FAT:
		return "fat"
	case NTFS:
		return "ntfs"
	case EXT4:
		return "ext4"
	}
	return fmt.Sprintf("fs(%d)", uint8(f))
}

// ParseFilesystem converts a filesystem name back to its enum value.
func ParseFilesystem(s string) (Filesystem, error) {
	for f := Filesystem(0); f < fsCount; f++ {
		if f.String() == s {
			return f, nil
		}
	}
	return 0, fmt.Errorf("storage: unknown filesystem %q", s)
}

// Device is a concrete storage configuration: a device formatted with a
// filesystem.
type Device struct {
	Type DeviceType
	FS   Filesystem
}

// String formats the configuration ("usb-flash/ntfs").
func (d Device) String() string { return d.Type.String() + "/" + d.FS.String() }

// chunkBytes is the write granularity of the pre-downloading pipeline
// (aria2/wget flush buffers of this order on OpenWrt).
const chunkBytes = 32 << 10

const mbps = 1024 * 1024 // 1 MBps in bytes/second

// fsCPUMsAt1GHz is the filesystem CPU cost in milliseconds per written
// chunk on a 1 GHz core. NTFS runs in userspace via FUSE (ntfs-3g) on
// OpenWrt, costing roughly 4-5x the in-kernel filesystems.
var fsCPUMsAt1GHz = [fsCount]float64{
	FAT:  2.90,
	NTFS: 15.5,
	EXT4: 3.83,
}

// devSeqBwMBps is the sequential write bandwidth of each device in MBps.
var devSeqBwMBps = [deviceCount]float64{
	SDCard:   15,
	USBFlash: 10,
	USBHDD:   20,
	SATAHDD:  30,
}

// devReadBwMBps is the sequential read bandwidth in MBps, from the §5.1
// device specifications (reads carry none of the small-write penalty).
var devReadBwMBps = [deviceCount]float64{
	SDCard:   30,
	USBFlash: 20,
	USBHDD:   25,
	SATAHDD:  70,
}

// ReadBandwidth returns a device's sequential read bandwidth in
// bytes/second — what bounds users fetching already-downloaded files from
// an AP.
func ReadBandwidth(d DeviceType) float64 {
	if d >= deviceCount {
		panic("storage: invalid device type")
	}
	return devReadBwMBps[d] * mbps
}

// smallWriteMs is the per-chunk device overhead (seeks, metadata updates,
// flash erase blocks) in milliseconds for each device x filesystem pair.
// Flash media pay heavily for FAT/EXT4's frequent in-place metadata
// updates; NTFS's FUSE layer batches writes and keeps device overhead low
// while burning CPU instead.
var smallWriteMs = [deviceCount][fsCount]float64{
	SDCard:   {FAT: 3.47, NTFS: 1.30, EXT4: 2.60},
	USBFlash: {FAT: 6.64, NTFS: 1.95, EXT4: 4.95},
	USBHDD:   {FAT: 3.98, NTFS: 1.15, EXT4: 0.74},
	SATAHDD:  {FAT: 2.00, NTFS: 0.90, EXT4: 2.88},
}

// WriteModel evaluates the storage write pipeline for a device
// configuration driven by an AP CPU of a given clock rate.
type WriteModel struct {
	// CPUGHz is the AP's CPU clock in GHz (e.g. 0.58 for the MT7620A in
	// HiWiFi and Newifi, 1.0 for MiWiFi's Broadcom 4709).
	CPUGHz float64
}

// validate panics on malformed configurations; these are programming
// errors, not runtime conditions.
func (m WriteModel) validate(d Device) {
	if m.CPUGHz <= 0 {
		panic("storage: WriteModel requires positive CPUGHz")
	}
	if d.Type >= deviceCount || d.FS >= fsCount {
		panic("storage: invalid device configuration " + d.String())
	}
}

// chunkTimes returns the per-chunk device and CPU stage times in seconds.
func (m WriteModel) chunkTimes(d Device) (tDev, tCPU float64) {
	m.validate(d)
	tDev = (smallWriteMs[d.Type][d.FS] +
		float64(chunkBytes)/(devSeqBwMBps[d.Type]*mbps)*1000) / 1000
	tCPU = fsCPUMsAt1GHz[d.FS] / m.CPUGHz / 1000
	return tDev, tCPU
}

// Throughput returns the storage pipeline's sustainable write rate in
// bytes/second, before any network ceiling.
func (m WriteModel) Throughput(d Device) float64 {
	tDev, tCPU := m.chunkTimes(d)
	return chunkBytes / (tDev + tCPU)
}

// MaxSpeed returns the observable pre-downloading speed in bytes/second:
// the storage pipeline throughput clipped by the network ceiling netCap
// (bytes/second; <= 0 means unconstrained).
func (m WriteModel) MaxSpeed(d Device, netCap float64) float64 {
	t := m.Throughput(d)
	if netCap > 0 && netCap < t {
		return netCap
	}
	return t
}

// IOWait returns the iowait ratio (fraction of wall time the CPU idles
// waiting on the device) when writing at the given rate in bytes/second.
// The rate is clipped to the pipeline's sustainable throughput.
func (m WriteModel) IOWait(d Device, rate float64) float64 {
	tDev, _ := m.chunkTimes(d)
	max := m.Throughput(d)
	if rate > max {
		rate = max
	}
	if rate <= 0 {
		return 0
	}
	chunksPerSec := rate / chunkBytes
	w := tDev * chunksPerSec
	return math.Min(w, 1)
}

// RecommendedUpgrade suggests the configuration change ODR's Bottleneck 4
// logic is built around (§5.2): NTFS should be reformatted to EXT4, and
// USB flash drives should be replaced by a USB hard disk when small-write
// throughput matters. It returns the improved configuration and whether a
// change is recommended.
func RecommendedUpgrade(d Device) (Device, bool) {
	out := d
	if d.FS == NTFS {
		out.FS = EXT4
	}
	if d.Type == USBFlash {
		out.Type = USBHDD
	}
	return out, out != d
}
