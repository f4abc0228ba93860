// Package android implements the simulated Android userspace: the
// privileged services whose 181K lines the paper measures (WindowManager,
// InputMethodManager and friends on the UI side; vold, location, installd
// and friends on the delegable side), the device nodes apps talk to, the
// package manager that installs apps, and the headless configuration the
// CVM boots (Section IV-4).
package android

import (
	"fmt"

	"anception/internal/abi"
	"anception/internal/binder"
	"anception/internal/kernel"
	"anception/internal/sim"
	"anception/internal/vfs"
)

// Binder transaction codes used by the simulated services.
const (
	// CodeWaitInput is Listing 1's IOC_WAIT_INPUT_EVT: block until the
	// input subsystem delivers an event to the calling app.
	CodeWaitInput uint32 = 1
	// CodeDraw submits a frame to the window manager.
	CodeDraw uint32 = 2
	// CodeGetLocation requests a GPS fix from the location service.
	CodeGetLocation uint32 = 3
	// CodeQuery is a generic metadata request (package manager etc.).
	CodeQuery uint32 = 4
)

// BinderCode names one transaction code of a platform service.
type BinderCode struct {
	Service string
	Code    uint32
}

// CallerIndependent lists the platform transactions whose reply depends
// only on (code, payload), never on the caller: a location fix and a
// package metadata query. It is part of the trusted image definition, so
// the host may serve one app's cached reply to another for these and for
// nothing else, whatever a container's services claim (DESIGN.md §12).
func CallerIndependent() []BinderCode {
	return []BinderCode{{"location", CodeGetLocation}, {"package", CodeQuery}}
}

// ContainerServices lists the binder services of the delegable side:
// under Anception they run in the container. Like CallerIndependent it is
// part of the trusted image definition, so the host routes an app's
// transaction by it and never by asking a container which services it
// has.
func ContainerServices() []string {
	return []string{"location", "package", "media", "keystore", "drm"}
}

// constReply is a service that answers every transaction with reply. A
// binder reply is read-only to whoever receives it, so every caller gets
// the same bytes.
func constReply(reply string) binder.Handler {
	b := []byte(reply)
	return func(abi.Cred, uint32, []byte) ([]byte, error) { return b, nil }
}

// VulnProfile selects which historical vulnerabilities are present in a
// booted platform. The security evaluation (Section V) boots platforms
// with all of them enabled; performance benches disable them.
type VulnProfile struct {
	// GingerBreakVold re-creates CVE-2011-1823: vold's netlink channel
	// is world-sendable and its message handler has a negative-index
	// code-execution bug.
	GingerBreakVold bool
	// ZergRushVold re-creates CVE-2011-3874: a stack overflow in the
	// framework-socket command parser of the volume daemon.
	ZergRushVold bool
	// FramebufferExposed re-creates the kernelchopper precondition
	// (CVE-2013-2596): /dev/graphics/fb0 is world-mappable and the
	// mapping exposes kernel memory.
	FramebufferExposed bool
	// NullSendpage re-creates CVE-2009-2692 in the socket layer.
	NullSendpage bool
	// MmapMinAddrZero permits null-page mappings (pre-hardening default).
	MmapMinAddrZero bool
	// HotplugUnvalidated re-creates the Exploid precondition: uevents can
	// point the hotplug helper at arbitrary paths.
	HotplugUnvalidated bool
	// ProcMemWriteBypass re-creates CVE-2012-0056 (mempodroid).
	ProcMemWriteBypass bool
	// PerfCounterBug re-creates CVE-2013-2094 (perf_event_open).
	PerfCounterBug bool
	// PutUserUnchecked re-creates CVE-2013-6282 (ARM put_user).
	PutUserUnchecked bool

	// Delegated-driver bugs (reachable only inside the CVM under
	// Anception).
	DiagExecBug      bool // CVE-2012-4220
	DiagOverflowBug  bool // CVE-2012-4221
	ExynosMemExposed bool // CVE-2012-6422
	CameraDriverBug  bool // CVE-2013-2595
	AshmemPinBug     bool // CVE-2011-1149 (psneuter)
	PtyRaceBug       bool // CVE-2014-0196
	SockDiagBug      bool // CVE-2013-1763
	L2TPBug          bool // CVE-2014-4943 (/dev/ppp path)

	// Host-only device bugs (unreachable under Anception: apps' opens of
	// these nodes are redirected into the CVM, where the node is absent).
	GPUDriverBug        bool // CVE-2011-1350/1352 (levitator, PowerVR)
	AudioACDBBug        bool // CVE-2013-2597
	NvhostBug           bool // CVE-2012-0946
	VideoDriverBug      bool // CVE-2013-4738
	BlockDeviceWritable bool // CVE-2011-1017 (LDM partition parser)

	// Lifecycle/service bugs.
	ZygoteSetuidBug         bool // RageAgainstTheCage / Zimperlich family
	ActivityDeserialization bool // CVE-2014-7911
}

// AllVulnerabilities returns the profile the Section V evaluation uses:
// every historical bug present, as on the studied 2010-2014 devices.
func AllVulnerabilities() VulnProfile {
	return VulnProfile{
		GingerBreakVold:    true,
		ZergRushVold:       true,
		FramebufferExposed: true,
		NullSendpage:       true,
		MmapMinAddrZero:    true,
		HotplugUnvalidated: true,
		ProcMemWriteBypass: true,
		PerfCounterBug:     true,
		PutUserUnchecked:   true,

		DiagExecBug:      true,
		DiagOverflowBug:  true,
		ExynosMemExposed: true,
		CameraDriverBug:  true,
		AshmemPinBug:     true,
		PtyRaceBug:       true,
		SockDiagBug:      true,
		L2TPBug:          true,

		GPUDriverBug:        true,
		AudioACDBBug:        true,
		NvhostBug:           true,
		VideoDriverBug:      true,
		BlockDeviceWritable: true,

		ZygoteSetuidBug:         true,
		ActivityDeserialization: true,
	}
}

// ServiceSpec describes one privileged service process.
type ServiceSpec struct {
	Name     string
	UID      int
	UI       bool // part of the UI/Input/lifecycle stack (host-resident)
	MemPages int  // resident footprint
	Binder   bool // registered with the binder context manager
	LoC      int  // lines of code, for the Section V-D accounting
}

// serviceCatalog is the privileged userspace of the simulated device. The
// LoC figures are sized so UI-related services total 72,542 of 181,260
// lines, matching the paper's measurements on Android 4.2.
var serviceCatalog = []ServiceSpec{
	// UI, input and lifecycle management (host side under Anception).
	{Name: "surfaceflinger", UID: abi.UIDSystem, UI: true, MemPages: 2600, Binder: true, LoC: 21900},
	{Name: "window", UID: abi.UIDSystem, UI: true, MemPages: 1500, Binder: true, LoC: 24642},
	{Name: "inputmethod", UID: abi.UIDSystem, UI: true, MemPages: 600, Binder: true, LoC: 9800},
	{Name: "activity", UID: abi.UIDSystem, UI: true, MemPages: 1400, Binder: true, LoC: 16200},

	// Delegable services (CVM side under Anception).
	{Name: "servicemanager", UID: abi.UIDSystem, MemPages: 120, Binder: false, LoC: 2300},
	{Name: "system_server", UID: abi.UIDSystem, MemPages: 2200, Binder: true, LoC: 40300},
	{Name: "vold", UID: abi.UIDRoot, MemPages: 420, Binder: false, LoC: 8200},
	{Name: "netd", UID: abi.UIDRoot, MemPages: 350, Binder: false, LoC: 7400},
	{Name: "installd", UID: abi.UIDRoot, MemPages: 280, Binder: false, LoC: 3900},
	{Name: "mediaserver", UID: abi.UIDSystem, MemPages: 900, Binder: true, LoC: 18200},
	{Name: "location", UID: abi.UIDSystem, MemPages: 330, Binder: true, LoC: 6100},
	{Name: "logd", UID: abi.UIDSystem, MemPages: 240, Binder: false, LoC: 4200},
	{Name: "keystore", UID: abi.UIDSystem, MemPages: 180, Binder: true, LoC: 3600},
	{Name: "drmserver", UID: abi.UIDSystem, MemPages: 190, Binder: true, LoC: 4800},
	{Name: "rild", UID: abi.UIDRoot, MemPages: 310, Binder: false, LoC: 5200},
	{Name: "sdcardd", UID: abi.UIDRoot, MemPages: 160, Binder: false, LoC: 2100},
	{Name: "debuggerd", UID: abi.UIDRoot, MemPages: 130, Binder: false, LoC: 2418},
	{Name: "zygote", UID: abi.UIDRoot, UI: true, MemPages: 1100, Binder: false, LoC: 0},
}

// Catalog returns a copy of the service catalog.
func Catalog() []ServiceSpec {
	out := make([]ServiceSpec, len(serviceCatalog))
	copy(out, serviceCatalog)
	return out
}

// Service is one booted service process.
type Service struct {
	Spec ServiceSpec
	Task *kernel.Task
}

// Services is the booted userspace of one kernel.
type Services struct {
	kernel *kernel.Kernel
	byName map[string]*Service

	WM   *WindowManager
	Vold *Vold
	Logd *Logd
}

// BootConfig controls which services come up.
type BootConfig struct {
	// Headless omits the UI stack, the configuration the CVM runs
	// (Section IV-4): no window manager, no framebuffer reservation.
	Headless bool
	// UIOnly starts only the UI/Input/lifecycle services, the Anception
	// host configuration: everything delegable lives in the CVM.
	UIOnly bool
	Vulns  VulnProfile
}

// Boot starts the privileged userspace on a kernel: spawns service
// processes with their footprints, registers binder endpoints, vold's
// netlink channel, and the device nodes.
func Boot(k *kernel.Kernel, cfg BootConfig) (*Services, error) {
	s := &Services{kernel: k, byName: make(map[string]*Service)}
	s.Logd = NewLogd()

	for _, spec := range serviceCatalog {
		if cfg.Headless && spec.UI {
			continue
		}
		if cfg.UIOnly && !spec.UI {
			continue
		}
		task := k.Spawn(abi.Cred{UID: spec.UID, GID: spec.UID}, spec.Name)
		task.ExecPath = "/system/bin/" + spec.Name
		if spec.MemPages > 0 {
			if _, err := task.AS.MapAnon(spec.MemPages, kernel.ProtRead|kernel.ProtWrite, kernel.VMAAnon, spec.Name); err != nil {
				return nil, fmt.Errorf("boot %s: %w", spec.Name, err)
			}
		}
		svc := &Service{Spec: spec, Task: task}
		s.byName[spec.Name] = svc

		switch spec.Name {
		case "window":
			s.WM = NewWindowManager(k, task)
			if err := k.Binder().Register("window", true, s.WM.HandleTransaction); err != nil {
				return nil, err
			}
		case "inputmethod":
			if err := k.Binder().Register("inputmethod", true, constReply("ime-ok")); err != nil {
				return nil, err
			}
		case "surfaceflinger":
			if err := k.Binder().Register("surfaceflinger", true, constReply("frame-ok")); err != nil {
				return nil, err
			}
		case "activity":
			vulnerable := cfg.Vulns.ActivityDeserialization
			if err := k.Binder().Register("activity", true, func(from abi.Cred, code uint32, data []byte) ([]byte, error) {
				// CVE-2014-7911: a crafted serialized object in a
				// lifecycle transaction executes in the privileged
				// service's context.
				if vulnerable && len(data) >= len(SerializedGadgetMarker) &&
					string(data[:len(SerializedGadgetMarker)]) == SerializedGadgetMarker {
					if sender := k.Task(from.PID); sender != nil {
						k.GrantUserspaceRoot(sender, "activity manager deserialization (CVE-2014-7911)")
					}
				}
				return []byte("lifecycle-ok"), nil
			}); err != nil {
				return nil, err
			}
		case "vold":
			s.Vold = NewVold(k, task, s.Logd, cfg.Vulns.GingerBreakVold, cfg.Vulns.ZergRushVold)
			k.Net().RegisterNetlink(NetlinkVoldProto, s.Vold.HandleNetlink, cfg.Vulns.GingerBreakVold)
		case "location":
			if err := k.Binder().Register("location", false, constReply("fix:42.2808,-83.7430")); err != nil {
				return nil, err
			}
		case "system_server":
			if err := k.Binder().Register("package", false, constReply("pkg-ok")); err != nil {
				return nil, err
			}
		case "mediaserver":
			if err := k.Binder().Register("media", false, constReply("media-ok")); err != nil {
				return nil, err
			}
		case "keystore":
			if err := k.Binder().Register("keystore", false, constReply("key-ok")); err != nil {
				return nil, err
			}
		case "drmserver":
			if err := k.Binder().Register("drm", false, constReply("drm-ok")); err != nil {
				return nil, err
			}
		}
	}

	if err := installDevices(k, cfg); err != nil {
		return nil, err
	}
	if k.Trace() != nil {
		k.Trace().Record(sim.EvLifecycle, "[%s] android userspace booted (headless=%v, %d services)",
			k.Name(), cfg.Headless, len(s.byName))
	}
	return s, nil
}

// Service returns a booted service by name, or nil.
func (s *Services) Service(name string) *Service { return s.byName[name] }

// Names lists booted services.
func (s *Services) Names() []string {
	out := make([]string, 0, len(s.byName))
	for n := range s.byName {
		out = append(out, n)
	}
	return out
}

// ResidentPages sums the services' footprints.
func (s *Services) ResidentPages() int {
	n := 0
	for _, svc := range s.byName {
		n += svc.Task.AS.ResidentPages()
	}
	return n
}

// NetlinkVoldProto is vold's control-channel protocol number.
const NetlinkVoldProto = 16

// mknodFresh creates a device node, replacing a stale one left from a
// previous boot of the same (persistent) filesystem — the CVM-restart
// path re-binds drivers to the new kernel instance.
func mknodFresh(fs *vfs.FileSystem, root abi.Cred, path string, mode abi.FileMode, dev vfs.Device) error {
	err := fs.Mknod(root, path, mode, dev)
	if err == abi.EEXIST {
		if uerr := fs.Unlink(root, path); uerr != nil {
			return uerr
		}
		err = fs.Mknod(root, path, mode, dev)
	}
	return err
}

// installDevices creates the device nodes apps interact with.
func installDevices(k *kernel.Kernel, cfg BootConfig) error {
	root := abi.Cred{UID: abi.UIDRoot}
	fs := k.FS()
	if err := fs.MkdirAll(root, "/dev/graphics", 0o755); err != nil {
		return err
	}
	if err := fs.MkdirAll(root, "/dev/socket", 0o755); err != nil {
		return err
	}
	if err := mknodFresh(fs, root, "/dev/binder", 0o666, NewBinderDevice(k.Binder())); err != nil {
		return err
	}
	if err := mknodFresh(fs, root, "/dev/null", 0o666, nullDevice{}); err != nil {
		return err
	}
	// Delegated driver nodes exist on every kernel; under Anception the
	// app-visible instances are the CVM's.
	driverMode := func(enabled bool, mode DriverVulnMode) DriverVulnMode {
		if enabled {
			return mode
		}
		return DriverSafe
	}
	delegated := []struct {
		path string
		cve  string
		mode DriverVulnMode
	}{
		{"/dev/diag", "CVE-2012-4220", driverMode(cfg.Vulns.DiagExecBug, DriverExecDirect)},
		{"/dev/diag_dci", "CVE-2012-4221", driverMode(cfg.Vulns.DiagOverflowBug, DriverJumpToUser)},
		{"/dev/exynos-mem", "CVE-2012-6422", driverMode(cfg.Vulns.ExynosMemExposed, DriverExecDirect)},
		{"/dev/msm_camera", "CVE-2013-2595", driverMode(cfg.Vulns.CameraDriverBug, DriverExecDirect)},
		{"/dev/ashmem", "CVE-2011-1149", driverMode(cfg.Vulns.AshmemPinBug, DriverExecDirect)},
		{"/dev/ptmx", "CVE-2014-0196", driverMode(cfg.Vulns.PtyRaceBug, DriverJumpToUser)},
		{"/dev/ppp", "CVE-2014-4943", driverMode(cfg.Vulns.L2TPBug, DriverJumpToUser)},
	}
	for _, d := range delegated {
		drv := NewVulnDriver(k, d.path[len("/dev/"):], d.cve, d.mode)
		if err := mknodFresh(fs, root, d.path, 0o666, drv); err != nil {
			return err
		}
	}
	registerSockDiag(k, cfg.Vulns.SockDiagBug)

	if !cfg.Headless {
		// The CVM is headless: no framebuffer, GPU, audio, video or raw
		// block nodes exist there — which is exactly why the exploits
		// against those drivers die in the container.
		mode := abi.FileMode(0o660)
		if cfg.Vulns.FramebufferExposed {
			mode = 0o666 // the historical misconfiguration
		}
		if err := mknodFresh(fs, root, "/dev/graphics/fb0", mode, NewFramebuffer(cfg.Vulns.FramebufferExposed)); err != nil {
			return err
		}
		hostOnly := []struct {
			path string
			cve  string
			mode DriverVulnMode
		}{
			{"/dev/pvrsrvkm", "CVE-2011-1350", driverMode(cfg.Vulns.GPUDriverBug, DriverExecDirect)},
			{"/dev/msm_acdb", "CVE-2013-2597", driverMode(cfg.Vulns.AudioACDBBug, DriverExecDirect)},
			{"/dev/nvhost", "CVE-2012-0946", driverMode(cfg.Vulns.NvhostBug, DriverExecDirect)},
			{"/dev/video0", "CVE-2013-4738", driverMode(cfg.Vulns.VideoDriverBug, DriverExecDirect)},
		}
		for _, d := range hostOnly {
			drv := NewVulnDriver(k, d.path[len("/dev/"):], d.cve, d.mode)
			if err := mknodFresh(fs, root, d.path, 0o666, drv); err != nil {
				return err
			}
		}
		if err := fs.MkdirAll(root, "/dev/block", 0o755); err != nil {
			return err
		}
		blockMode := abi.FileMode(0o600)
		if cfg.Vulns.BlockDeviceWritable {
			blockMode = 0o666
		}
		if err := mknodFresh(fs, root, "/dev/block/mmcblk0", blockMode, NewBlockDevice(k, cfg.Vulns.BlockDeviceWritable)); err != nil {
			return err
		}
	}
	return nil
}
