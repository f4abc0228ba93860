// Cachedio: boot an Anception platform with the redirection cache enabled
// and watch what it does to the hot file-I/O path — repeated reads are
// answered from host-side pages, adjacent writes coalesce into one batched
// round trip, and fsync flushes the write buffer into the container.
//
//	go run ./examples/cachedio
package main

import (
	"fmt"
	"log"

	"anception/internal/abi"
	"anception/internal/anception"
	"anception/internal/android"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	// 1. Boot with RedirCache: the paper's decomposition plus the host-side
	//    page cache over redirected descriptors. Security is unchanged —
	//    the cache holds only pages the app itself read or wrote.
	device, err := anception.NewDevice(anception.Options{
		Mode:       anception.ModeAnception,
		RedirCache: true,
	})
	if err != nil {
		return err
	}
	app, err := device.InstallApp(android.AppSpec{Package: "com.example.cachedio"})
	if err != nil {
		return err
	}
	proc, err := device.Launch(app)
	if err != nil {
		return err
	}

	fd, err := proc.Open("hot.dat", abi.ORdWr|abi.OCreat, 0o600)
	if err != nil {
		return err
	}

	// 2. Write coalescing: 16 adjacent 4 KB writes merge into a single
	//    dirty extent in the host-side buffer. Once the extent crosses the
	//    read-ahead window the buffer flushes itself in one batched round
	//    trip, so at most one background flush happens during the loop.
	page := make([]byte, abi.PageSize)
	before := device.Clock.Now()
	for i := 0; i < 16; i++ {
		if _, err := proc.Pwrite(fd, page, int64(i)*abi.PageSize); err != nil {
			return err
		}
	}
	fmt.Printf("16 buffered writes: %v simulated (%d coalesced)\n",
		device.Clock.Now()-before, device.Layer.Stats().Cache.CoalescedWrites)

	// 3. Durability on demand: fsync flushes the whole extent in one
	//    batched world-switch pair and the data lands in the container.
	if _, err := proc.Fsync(fd); err != nil {
		return err
	}
	root := abi.Cred{UID: abi.UIDRoot}
	blob, err := device.Guest.FS().ReadFile(root, app.Info.DataDir+"/hot.dat")
	if err != nil {
		return err
	}
	fmt.Printf("after fsync the container holds %d bytes (flushes=%d)\n",
		len(blob), device.Layer.Stats().Cache.Flushes)

	// 4. Read caching: the first read misses. It starts at offset 0, so it
	//    counts as the start of a sequential scan and pulls the read-ahead
	//    window; a miss at a random offset would fetch only the pages it
	//    spans. Every re-read after that is answered on the host.
	before = device.Clock.Now()
	if _, err := proc.Pread(fd, abi.PageSize, 0); err != nil {
		return err
	}
	cold := device.Clock.Now() - before
	before = device.Clock.Now()
	for i := 0; i < 100; i++ {
		if _, err := proc.Pread(fd, abi.PageSize, 0); err != nil {
			return err
		}
	}
	warm := (device.Clock.Now() - before) / 100
	fmt.Printf("read 4 KB: cold=%v, warm=%v per op\n", cold, warm)

	// 5. The cache's own accounting.
	cs := device.Layer.Stats().Cache
	fmt.Printf("cache stats: hits=%d misses=%d read-ahead=%d coalesced=%d flushes=%d\n",
		cs.Hits, cs.Misses, cs.ReadAheadPages, cs.CoalescedWrites, cs.Flushes)
	fmt.Printf("simulated time: %v\n", device.Clock.Now())
	return nil
}
