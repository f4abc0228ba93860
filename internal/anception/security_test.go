package anception

import (
	"bytes"
	"errors"
	"testing"

	"anception/internal/abi"
	"anception/internal/android"
	"anception/internal/kernel"
)

// rootShellAfterGingerBreak runs the GingerBreak trigger against whichever
// kernel hosts vold and returns the spawned root shell, or nil.
func rootShellAfterGingerBreak(t *testing.T, d *Device, mal *Proc) *kernel.Task {
	t.Helper()
	// Drop the payload in the malware's private directory (redirected to
	// the CVM under Anception).
	fd, err := mal.Open("exploit", abi.OWrOnly|abi.OCreat, 0o700)
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte(kernel.AttackerPayloadMagic + "\nGingerBreak stage 2")
	if _, err := mal.Write(fd, payload); err != nil {
		t.Fatal(err)
	}
	if err := mal.Close(fd); err != nil {
		t.Fatal(err)
	}

	// Send the crafted netlink message with the magic negative index.
	sockFD, err := mal.Socket(3 /* AFNetlink */, 2 /* SockDgram */, android.NetlinkVoldProto)
	if err != nil {
		t.Fatal(err)
	}
	msg := []byte("GB:-1073741821:" + mal.App.Info.DataDir + "/exploit")
	if err := mal.SendNetlink(sockFD, msg); err != nil {
		t.Fatal(err)
	}

	vold := d.DelegableServices().Vold
	shells := vold.RootShells()
	if len(shells) == 0 {
		return nil
	}
	return shells[0]
}

// TestExploitationChannels is E12/Figure 1: a low-assurance app escalates
// via vold; on native Android it then reads the high-assurance app's
// memory, on Anception it can only reach the proxy.
func TestExploitationChannels(t *testing.T) {
	secret := []byte("bank-password-hunter2")

	steal := func(mode Mode) (gotRoot bool, stolen bool) {
		d := bootDevice(t, mode)
		hi := installAndLaunch(t, d, "com.bank")
		if _, err := hi.PlantSecret(secret); err != nil {
			t.Fatal(err)
		}
		lo := installAndLaunch(t, d, "com.malware")

		shell := rootShellAfterGingerBreak(t, d, lo)
		if shell == nil {
			return false, false
		}
		// The attacker-controlled root shell scans /proc for the bank app
		// and dumps its memory.
		shellKernel := d.AppKernel()
		if mode == ModeAnception {
			shellKernel = d.Guest // the shell exists only inside the CVM
		}
		sh := d.LaunchServiceShell(shellKernel, shell)
		victimPID := findPIDByComm(sh, "com.bank")
		if victimPID == 0 {
			// Under Anception the host app is invisible; try the proxy.
			victimPID = findPIDByComm(sh, "com.bank:proxy")
		}
		if victimPID == 0 {
			return true, false
		}
		memFD, err := sh.Open("/proc/"+itoa(victimPID)+"/mem", abi.ORdOnly, 0)
		if err != nil {
			return true, false
		}
		dump, err := sh.Pread(memFD, 64, int64(kernel.AddrHeapBase))
		if err != nil {
			return true, false
		}
		return true, bytes.Contains(dump, secret)
	}

	if gotRoot, stolen := steal(ModeNative); !gotRoot || !stolen {
		t.Fatalf("native: root=%v stolen=%v, want both (the attack works on stock Android)", gotRoot, stolen)
	}
	if gotRoot, stolen := steal(ModeAnception); !gotRoot || stolen {
		t.Fatalf("anception: root=%v stolen=%v, want root-in-CVM without theft", gotRoot, stolen)
	}
}

// TestBankingAppConfidentiality drives the full Figure 2 scenario: input
// through the host UI, TLS-style exchange through the CVM, concurrent
// compromised container.
func TestBankingAppConfidentiality(t *testing.T) {
	d := bootDevice(t, ModeAnception)
	var serverSaw [][]byte
	d.RegisterRemote("bank.com:443", func(req []byte) []byte {
		serverSaw = append(serverSaw, append([]byte(nil), req...))
		return []byte("TLS:OK")
	})

	bank := installAndLaunch(t, d, "com.bank")
	bfd, err := bank.OpenBinder()
	if err != nil {
		t.Fatal(err)
	}

	// The user types the password; it flows through the host-side WM.
	d.QueueInput(bank.App, []byte("pwd:hunter2"))
	input, err := bank.WaitInput(bfd)
	if err != nil || string(input) != "pwd:hunter2" {
		t.Fatalf("input = %q, %v", input, err)
	}

	// The app keeps it only in host memory and sends ciphertext out.
	if _, err := bank.PlantSecret(input); err != nil {
		t.Fatal(err)
	}
	sock, err := bank.Socket(1, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := bank.Connect(sock, "bank.com:443"); err != nil {
		t.Fatal(err)
	}
	ciphertext := xorEncrypt(input, 0x5A)
	if _, err := bank.Send(sock, ciphertext); err != nil {
		t.Fatal(err)
	}
	if resp, err := bank.Recv(sock, 16); err != nil || string(resp) != "TLS:OK" {
		t.Fatalf("recv = %q, %v", resp, err)
	}

	// The container saw only ciphertext.
	for _, req := range serverSaw {
		if bytes.Contains(req, []byte("hunter2")) {
			t.Fatal("plaintext password crossed into the container")
		}
	}

	// A compromised CVM cannot read the password from the proxy: the
	// proxy address space never held it.
	proxyTask := d.Proxies.ProxyFor(bank.Task.PID)
	dump, err := proxyTask.AS.ReadBytes(d.Guest.Region(), kernel.AddrHeapBase, 64)
	if err == nil && bytes.Contains(dump, []byte("hunter2")) {
		t.Fatal("password present in proxy memory")
	}

	// And the CVM cannot see the queued UI input: the WM runs on the
	// host, outside the guest's physical region.
	wmTask := d.HostServices.WM.Task()
	if _, err := wmTask.AS.ReadBytes(d.Guest.Region(), kernel.AddrHeapBase, 16); !errors.Is(err, abi.EPERM) {
		t.Fatalf("guest-confined access to WM memory: %v, want EPERM", err)
	}
}

// TestGuestCannotReadHostAppMemory is the memory-isolation invariant at
// the physical-frame level.
func TestGuestCannotReadHostAppMemory(t *testing.T) {
	d := bootDevice(t, ModeAnception)
	hi := installAndLaunch(t, d, "com.bank")
	addr, err := hi.PlantSecret([]byte("s3cr3t"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := hi.Task.AS.ReadBytes(d.Guest.Region(), addr, 6); !errors.Is(err, abi.EPERM) {
		t.Fatalf("guest-region accessor read host app memory: %v", err)
	}
	// The host accessor works fine.
	got, err := hi.Task.AS.ReadBytes(d.Host.Region(), addr, 6)
	if err != nil || string(got) != "s3cr3t" {
		t.Fatalf("host read = %q, %v", got, err)
	}
}

// TestClassicalVMExposesCoResidentApps shows the Section V-B comparison:
// classical virtualization protects the host OS but not apps from each
// other — HiApp's memory is inside the same guest the attacker roots.
func TestClassicalVMExposesCoResidentApps(t *testing.T) {
	d := bootDevice(t, ModeClassicalVM)
	secret := []byte("classical-secret")
	hi := installAndLaunch(t, d, "com.bank")
	if _, err := hi.PlantSecret(secret); err != nil {
		t.Fatal(err)
	}
	lo := installAndLaunch(t, d, "com.malware")
	shell := rootShellAfterGingerBreak(t, d, lo)
	if shell == nil {
		t.Fatal("gingerbreak failed inside the classical VM")
	}
	sh := d.LaunchServiceShell(d.Guest, shell)
	pid := findPIDByComm(sh, "com.bank")
	if pid == 0 {
		t.Fatal("bank app not visible in guest")
	}
	memFD, err := sh.Open("/proc/"+itoa(pid)+"/mem", abi.ORdOnly, 0)
	if err != nil {
		t.Fatal(err)
	}
	dump, err := sh.Pread(memFD, 64, int64(kernel.AddrHeapBase))
	if err != nil || !bytes.Contains(dump, secret) {
		t.Fatalf("classical VM should NOT protect co-resident apps; dump=%q err=%v", dump, err)
	}
	// But the host kernel outside the VM is untouched.
	if d.Host.Compromised() != nil {
		t.Fatal("host kernel compromised through the guest")
	}
}

// TestCVMPanicLeavesHostRunning verifies crash containment: a guest panic
// (e.g. the failed CVE-2009-2692 under Anception) kills proxies but not
// the host.
func TestCVMPanicLeavesHostRunning(t *testing.T) {
	d := bootDevice(t, ModeAnception)
	app := installAndLaunch(t, d, "com.app")
	d.Guest.Panic("induced")
	if d.Host.Panicked() != "" {
		t.Fatal("host panicked with the guest")
	}
	if app.Task.CurrentState() != kernel.TaskRunning {
		t.Fatal("host app died with the CVM")
	}
	// Host-class calls still work; redirected calls fail gracefully.
	if pid := app.Getpid(); pid != app.Task.PID {
		t.Fatal("host syscalls broken after CVM crash")
	}
	if _, err := app.Open("file", abi.OWrOnly|abi.OCreat, 0o600); err == nil {
		t.Fatal("redirected call succeeded on a dead CVM")
	}
}

func findPIDByComm(sh *Proc, comm string) int {
	listing, err := sh.Getdents("/proc")
	if err != nil {
		return 0
	}
	for _, entry := range splitLines(string(listing)) {
		pid := atoi(entry)
		if pid == 0 {
			continue
		}
		fd, err := sh.Open("/proc/"+entry+"/cmdline", abi.ORdOnly, 0)
		if err != nil {
			continue
		}
		data, err := sh.Read(fd, 128)
		_ = sh.Close(fd)
		if err == nil && string(data) == comm {
			return pid
		}
	}
	return 0
}

func xorEncrypt(data []byte, key byte) []byte {
	out := make([]byte, len(data))
	for i, b := range data {
		out[i] = b ^ key
	}
	return out
}

func splitLines(s string) []string {
	var out []string
	start := 0
	for i := 0; i <= len(s); i++ {
		if i == len(s) || s[i] == '\n' {
			if i > start {
				out = append(out, s[start:i])
			}
			start = i + 1
		}
	}
	return out
}

func atoi(s string) int {
	n := 0
	for _, c := range s {
		if c < '0' || c > '9' {
			return 0
		}
		n = n*10 + int(c-'0')
	}
	return n
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var d []byte
	for n > 0 {
		d = append([]byte{byte('0' + n%10)}, d...)
		n /= 10
	}
	return string(d)
}
